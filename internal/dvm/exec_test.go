package dvm

import (
	"testing"

	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/taint"
)

// registerParityClasses builds a class hierarchy exercising every translated
// opcode family: arithmetic (int/long/float/double), conversions, compares,
// arrays (narrow and wide), instance/static fields, const-strings, static and
// virtual invokes with overriding, and exception paths (caught, rethrown,
// propagated across frames). Classes must be built fresh per VM.
func registerParityClasses(vm *VM) {
	const base = "Lcom/parity/Base;"
	const sub = "Lcom/parity/Sub;"
	const k = "Lcom/parity/K;"

	bb := dex.NewClass(base)
	bb.InstanceField("x", false)
	bb.Method("weight", "I", 0, 1).
		Const(0, 10).
		Return(0).
		Done()
	vm.RegisterClass(bb.Build())

	sb := dex.NewClass(sub).Super(base)
	sb.InstanceField("x", false)
	sb.Method("weight", "I", 0, 1).
		Const(0, 77).
		Return(0).
		Done()
	vm.RegisterClass(sb.Build())

	cb := dex.NewClass(k)
	cb.StaticField("acc", false)

	// Integer/shift/compare kitchen sink: f(n) over a loop.
	cb.Method("arith", "II", dex.AccStatic, 4).
		Const(0, 0).
		Const(1, 3).
		Label("loop").
		IfZ(4, dex.Le, "done").
		Bin(dex.Add, 0, 0, 4).
		Bin(dex.Xor, 0, 0, 1).
		Bin(dex.Shl, 2, 0, 1).
		Bin(dex.Ushr, 2, 2, 1).
		Bin(dex.Or, 0, 0, 2).
		BinLit(dex.And, 0, 0, 0x7fffffff).
		BinLit(dex.Rem, 2, 0, 9973).
		BinLit(dex.Sub, 4, 4, 1).
		Goto("loop").
		Label("done").
		Return(2).
		Done()

	// Wide + float + double arithmetic and conversions, result folded to int.
	cb.Method("fp", "II", dex.AccStatic, 8).
		IntToLong(0, 8).             // (v0,v1) = n
		ConstWide(2, 7).             // (v2,v3) = 7
		BinWide(dex.Mul, 0, 0, 2).   //
		BinWide(dex.Add, 0, 0, 2).   //
		LongToInt(4, 0).             //
		IntToFloat(5, 4).            //
		IntToFloat(6, 8).            //
		BinFloat(dex.Add, 5, 5, 6).  //
		BinFloat(dex.Mul, 5, 5, 6).  //
		FloatToInt(5, 5).            //
		IntToDouble(0, 5).           // (v0,v1)
		IntToDouble(2, 8).           // (v2,v3)
		BinDouble(dex.Div, 0, 0, 2). //
		DoubleToInt(6, 0).           //
		CmpFloatOp(7, 5, 6).         //
		Bin(dex.Add, 6, 6, 7).       //
		Bin(dex.Add, 6, 6, 5).       //
		Bin(dex.Add, 6, 6, 4).       //
		Return(6).
		Done()

	// Arrays: narrow get/put, length, plus static-field accumulation.
	cb.Method("arrays", "II", dex.AccStatic, 4).
		Const(0, 16).
		NewArray(1, 0, "I").
		Const(0, 0). // i
		Label("fill").
		If(0, dex.Ge, 4, "sum").
		Bin(dex.Mul, 2, 0, 0).
		Aput(2, 1, 0).
		BinLit(dex.Add, 0, 0, 1).
		Goto("fill").
		Label("sum").
		ArrayLength(0, 1).
		Sput(0, k, "acc").
		Const(0, 0).
		Const(2, 0).
		Label("sl").
		If(0, dex.Ge, 4, "out").
		Aget(3, 1, 0).
		Bin(dex.Add, 2, 2, 3).
		BinLit(dex.Add, 0, 0, 1).
		Goto("sl").
		Label("out").
		Sget(3, k, "acc").
		Bin(dex.Add, 2, 2, 3).
		Return(2).
		Done()

	// Instance fields + const-string + virtual dispatch on both classes.
	cb.Method("objs", "II", dex.AccStatic, 4).
		NewInstance(0, sub).
		InvokeDirect(sub, "<init>", "V", 0).
		Iput(4, 0, sub, "x").
		Iget(1, 0, sub, "x").
		InvokeVirtual(base, "weight", "I", 0). // dispatches to Sub.weight
		MoveResult(2).
		Bin(dex.Add, 1, 1, 2).
		ConstString(3, "parity").
		InvokeVirtual("Ljava/lang/String;", "length", "I", 3).
		MoveResult(3).
		Bin(dex.Add, 1, 1, 3).
		Return(1).
		Done()
	// Sub needs a direct <init>.
	subCls, _ := vm.Class(sub)
	ib := dex.NewClass("Lcom/parity/tmp;") // builder only; method moved below
	init := ib.Method("<init>", "V", 0, 0).
		ReturnVoid().
		Done()
	init.Class = subCls
	subCls.Methods = append(subCls.Methods, init)

	// Exceptions: caught div-by-zero, caught explicit throw, and an
	// out-of-bounds caught from a callee two frames down.
	cb.Method("boom", "VI", dex.AccStatic, 2).
		Const(0, 4).
		NewArray(0, 0, "I").
		Aget(1, 0, 2). // index = arg, may be out of bounds
		ReturnVoid().
		Done()
	cb.Method("excep", "III", dex.AccStatic, 3).
		Label("t0").
		BinLit(dex.Add, 0, 3, 0).
		Bin(dex.Div, 0, 0, 4). // may divide by zero
		Label("t0end").
		Goto("t1").
		Label("h0").
		MoveException(1).
		Const(0, -1).
		Label("t1").
		InvokeStatic(k, "boom", "VI", 3).
		Label("t1end").
		Goto("t2").
		Label("h1").
		MoveException(1).
		BinLit(dex.Add, 0, 0, 1000).
		Label("t2").
		NewInstance(1, "Ljava/lang/RuntimeException;").
		Throw(1).
		Label("t2end").
		Goto("ret").
		Label("h2").
		MoveException(1).
		BinLit(dex.Add, 0, 0, 7).
		Label("ret").
		Return(0).
		Try("t0", "t0end", "h0", "").
		Try("t1", "t1end", "h1", "").
		Try("t2", "t2end", "h2", "Ljava/lang/RuntimeException;").
		Done()

	// badcall invokes boom without its argument: an emulator fault.
	cb.Method("badcall", "V", dex.AccStatic, 1).
		Const(0, 1).
		InvokeStatic(k, "boom", "VI").
		ReturnVoid().
		Done()

	// uncaught propagates a throwable out of the method.
	cb.Method("uncaught", "V", dex.AccStatic, 1).
		NewInstance(0, "Ljava/lang/RuntimeException;").
		Throw(0).
		Done()

	vm.RegisterClass(cb.Build())
}

// parityRun invokes one method on a fresh VM configured by cfg and returns
// everything observable: value, taint, thrown class, error string, and the
// executed-instruction counter.
func parityRun(t *testing.T, cfg func(*VM), method string, args []uint32, taints []taint.Tag) (uint64, taint.Tag, string, string, uint64) {
	t.Helper()
	vm := newVM(t)
	if cfg != nil {
		cfg(vm)
	}
	registerParityClasses(vm)
	ret, rt, thrown, err := vm.InvokeByName("Lcom/parity/K;", method, args, taints)
	thrownCls, errStr := "", ""
	if thrown != nil && thrown.Class != nil {
		thrownCls = thrown.Class.Name
	}
	if err != nil {
		errStr = err.Error()
	}
	return ret, rt, thrownCls, errStr, vm.JavaInsnCount
}

var parityConfigs = []struct {
	name string
	cfg  func(*VM)
}{
	{"vanilla", func(vm *VM) { vm.TaintJava = false }},
	{"taintdroid", func(vm *VM) { vm.TaintJava = true }},
	{"gated-clean", func(vm *VM) { vm.TaintJava = true; vm.GateJava = true }},
}

// TestTranslateParity (name kept from the two-engine VM) pins the executor
// to what the interpreter and the closure translator both returned: value,
// taint, thrown class, error and executed-instruction count, under every
// taint configuration. The want column was recorded on that VM.
func TestTranslateParity(t *testing.T) {
	const (
		badcall = `dvm: malformed-dex fault in Lcom/parity/K;.boom: expects 1 arg words, got 0`
		rte     = "Ljava/lang/RuntimeException;"
	)
	type out struct {
		ret    uint64
		taint  taint.Tag
		thrown string
		err    string
		insns  uint64
	}
	cases := []struct {
		method string
		args   []uint32
		taints []taint.Tag
		want   out // vanilla, and the tainting configs unless wantTaint is set
		// wantTaint is the return taint under taintdroid and gated-clean.
		wantTaint taint.Tag
	}{
		{"arith", []uint32{50}, nil, out{ret: 1273, insns: 504}, 0},
		{"fp", []uint32{12}, nil, out{ret: 1431, insns: 19}, 0},
		{"arrays", []uint32{16}, nil, out{ret: 1256, insns: 172}, 0},
		{"objs", []uint32{5}, nil, out{ret: 88, insns: 15}, 0},
		{"excep", []uint32{20, 4}, nil, out{ret: 1012, insns: 14}, 0},
		{"excep", []uint32{20, 0}, nil, out{ret: 1006, insns: 15}, 0}, // divide by zero path
		{"uncaught", nil, nil, out{thrown: rte, insns: 2}, 0},
		{"badcall", nil, nil, out{err: badcall, insns: 2}, 0},
		{"arith", []uint32{50}, []taint.Tag{taint.IMEI}, out{ret: 1273, insns: 504}, taint.IMEI},
		{"excep", []uint32{20, 0}, []taint.Tag{taint.SMS, 0}, out{ret: 1006, insns: 15}, 0},
		{"objs", []uint32{5}, []taint.Tag{taint.IMEI}, out{ret: 88, insns: 15}, taint.IMEI},
		{"fp", []uint32{12}, []taint.Tag{taint.SMS}, out{ret: 1431, insns: 19}, taint.SMS},
	}
	for _, c := range parityConfigs {
		for _, tc := range cases {
			want := tc.want
			if c.name != "vanilla" {
				want.taint = tc.wantTaint
			}
			var got out
			got.ret, got.taint, got.thrown, got.err, got.insns = parityRun(t, c.cfg, tc.method, tc.args, tc.taints)
			if got != want {
				t.Errorf("%s/%s%v%v: got %+v, want %+v", c.name, tc.method, tc.args, tc.taints, got, want)
			}
		}
	}
}

// TestConstStringInterning: a 10k-iteration const-string loop must not grow
// the heap.
func TestConstStringInterning(t *testing.T) {
	vm := newVM(t)
	cb := dex.NewClass("Lcom/intern/S;")
	cb.Method("spin", "LI", dex.AccStatic, 2).
		ConstString(0, "kept").
		Label("loop").
		IfZ(2, dex.Le, "done").
		ConstString(1, "churn").
		BinLit(dex.Sub, 2, 2, 1).
		Goto("loop").
		Label("done").
		Return(0).
		Done()
	vm.RegisterClass(cb.Build())

	// Warm up once so both const-string sites are interned.
	invoke(t, vm, "Lcom/intern/S;", "spin", 1)
	before := vm.HeapObjects()
	ret, _ := invoke(t, vm, "Lcom/intern/S;", "spin", 10000)
	if after := vm.HeapObjects(); after != before {
		t.Errorf("10k const-string loop grew vm.objects %d -> %d", before, after)
	}
	if o, ok := vm.ObjectAt(uint32(ret)); !ok || o.Str != "kept" {
		t.Errorf("interned string lost: %+v", o)
	}
}

// TestMidRunStepFnInvalidation: a JavaStepFn installed while a frame is
// mid-flight takes effect before that frame's next instruction — the
// observer sees every instruction that executes after the installing call
// returns.
func TestMidRunStepFnInvalidation(t *testing.T) {
	vm := newVM(t)
	var seen []int
	installer := dex.NewClass("Lcom/epoch/Install;").Build()
	addBuiltin(vm, installer, "arm", "V", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		vm.SetJavaStepFn(func(th *Thread, m *dex.Method, pc int, insn *dex.Insn) {
			if m.Name == "outer" {
				seen = append(seen, pc)
			}
		})
		return 0, 0, nil
	})
	vm.RegisterClass(installer)

	cb := dex.NewClass("Lcom/epoch/T;")
	cb.Method("outer", "V", dex.AccStatic, 2).
		Const(0, 1).                                     // pc 0
		Const(1, 2).                                     // pc 1
		InvokeStatic("Lcom/epoch/Install;", "arm", "V"). // pc 2: installs observer
		Bin(dex.Add, 0, 0, 1).                           // pc 3: must be observed
		Bin(dex.Add, 0, 0, 1).                           // pc 4: must be observed
		ReturnVoid().                                    // pc 5
		Done()
	vm.RegisterClass(cb.Build())

	invoke(t, vm, "Lcom/epoch/T;", "outer")
	if len(seen) == 0 {
		t.Fatal("step function never fired after mid-run installation")
	}
	if seen[0] != 3 {
		t.Errorf("first observed pc = %d, want 3 (the instruction right after the installing call)", seen[0])
	}
	want := []int{3, 4, 5}
	if len(seen) != len(want) {
		t.Fatalf("observed pcs %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("observed pcs %v, want %v", seen, want)
		}
	}
}

// TestMidRunHookInvalidation: an internal hook registered mid-frame fires
// on the frame's very next invoke, and, since hooks resolve nothing a decode
// holds, the method is not decoded again; only the fused-chain epoch moves.
func TestMidRunHookInvalidation(t *testing.T) {
	vm := newVM(t)
	vm.InterpretHookAll = true
	fired := 0
	installer := dex.NewClass("Lcom/epoch/Hooker;").Build()
	addBuiltin(vm, installer, "arm", "V", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		vm.HookInternal("dvmInterpret", InternalHook{Before: func(ctx *CallCtx) { fired++ }})
		return 0, 0, nil
	})
	vm.RegisterClass(installer)

	cb := dex.NewClass("Lcom/epoch/H;")
	cb.Method("one", "I", dex.AccStatic, 1).
		Const(0, 1).
		Return(0).
		Done()
	cb.Method("outer", "I", dex.AccStatic, 2).
		Const(0, 5).
		InvokeStatic("Lcom/epoch/Hooker;", "arm", "V").
		InvokeStatic("Lcom/epoch/H;", "one", "I").
		MoveResult(1).
		Bin(dex.Add, 0, 0, 1).
		Return(0).
		Done()
	vm.RegisterClass(cb.Build())

	epochBefore := vm.TransEpoch()
	ret, _ := invoke(t, vm, "Lcom/epoch/H;", "outer")
	if ret != 6 {
		t.Fatalf("outer returned %d, want 6", ret)
	}
	if fired != 1 {
		t.Errorf("hook fired %d times, want 1 (the invoke right after its registration)", fired)
	}
	if vm.TransEpoch() == epochBefore {
		t.Fatal("HookInternal did not bump the fused-chain epoch")
	}
	decodes := vm.JavaTransMethods
	invoke(t, vm, "Lcom/epoch/H;", "outer")
	if vm.JavaTransMethods != decodes {
		t.Errorf("a hook registration re-decoded %d methods", vm.JavaTransMethods-decodes)
	}
}

// TestClassRegistrationRedecodesMidFrame: a class registered by a callee
// resolves for the rest of the running frame. The frame decoded its
// new-instance while the class was unknown, so it must decode again before
// its next instruction.
func TestClassRegistrationRedecodesMidFrame(t *testing.T) {
	vm := newVM(t)
	const late = "Lcom/epoch/Late;"
	loader := dex.NewClass("Lcom/epoch/Loader;").Build()
	addBuiltin(vm, loader, "load", "V", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		vm.RegisterClass(dex.NewClass(late).Build())
		return 0, 0, nil
	})
	vm.RegisterClass(loader)

	cb := dex.NewClass("Lcom/epoch/R;")
	cb.Method("outer", "I", dex.AccStatic, 1).
		InvokeStatic("Lcom/epoch/Loader;", "load", "V").
		NewInstance(0, late).
		Const(0, 7).
		Return(0).
		Done()
	vm.RegisterClass(cb.Build())

	decodes := vm.JavaTransMethods
	if ret, _ := invoke(t, vm, "Lcom/epoch/R;", "outer"); ret != 7 {
		t.Fatalf("outer returned %d, want 7", ret)
	}
	if got := vm.JavaTransMethods - decodes; got != 2 {
		t.Errorf("%d decodes, want 2 (first call, then after the registration)", got)
	}
}

// TestGateBailMidMethod: in a gated run, a source invoked mid-method flips
// the latch; the frame must switch from clean to tainting before its next
// instruction so the returned taint propagates.
func TestGateBailMidMethod(t *testing.T) {
	vm := newVM(t)
	vm.GateJava = true

	src := dex.NewClass("Lcom/bail/Src;").Build()
	addBuiltin(vm, src, "imei", "I", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		return 42, taint.IMEI, nil
	})
	vm.RegisterClass(src)

	cb := dex.NewClass("Lcom/bail/B;")
	cb.Method("flow", "I", dex.AccStatic, 2).
		Const(0, 1).
		InvokeStatic("Lcom/bail/Src;", "imei", "I").
		MoveResult(1). // after the bail this must copy the taint
		Bin(dex.Add, 0, 0, 1).
		Return(0).
		Done()
	vm.RegisterClass(cb.Build())

	ret, rt, thrown, err := vm.InvokeByName("Lcom/bail/B;", "flow", nil, nil)
	if err != nil || thrown != nil {
		t.Fatalf("flow: %v %v", err, thrown)
	}
	if ret != 43 {
		t.Errorf("flow returned %d, want 43", ret)
	}
	if rt != taint.IMEI {
		t.Errorf("flow return taint %v, want IMEI (the frame stayed clean past the latch flip)", rt)
	}
	if !vm.TaintSeen() {
		t.Error("latch did not flip")
	}
}

// TestUnvalidatedOperandsFault: a method that skipped dex.Validate and names
// a register outside its frame, or whose frame cannot hold its arguments,
// ends its run in a typed MalformedDex fault, not a recovered host panic.
func TestUnvalidatedOperandsFault(t *testing.T) {
	for _, tc := range []struct {
		name, shorty string
		regs         int
		args         []uint32
		insns        []dex.Insn
	}{
		{"const-v9", "V", 1, nil, []dex.Insn{{Op: dex.Const, A: 9, Lit: 7}, {Op: dex.ReturnVoid}}},
		{"wide-straddle", "V", 2, nil, []dex.Insn{{Op: dex.ConstWide, A: 1, Lit: 7}, {Op: dex.ReturnVoid}}},
		{"args-past-frame", "VJI", 2, []uint32{1, 2, 3}, []dex.Insn{{Op: dex.ReturnVoid}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vm := newVM(t)
			cls := &dex.Class{Name: "Lcom/test/Bad;"}
			m := dex.NewMethod(cls, "run", tc.shorty, dex.AccStatic)
			m.NumRegs, m.Insns = tc.regs, tc.insns
			cls.Methods = []*dex.Method{m}
			vm.RegisterClass(cls)
			_, _, _, err := vm.InvokeByName(cls.Name, "run", tc.args, nil)
			if f, ok := fault.Of(err); !ok || f.Kind != fault.MalformedDex {
				t.Fatalf("err = %v, want a malformed-dex fault", err)
			}
		})
	}
}
