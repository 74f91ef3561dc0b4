package dvm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/taint"
)

// The executor's differential fuzzer. One executor serves every analysis
// mode, and the modes differ only in per-frame flags: taint propagation, the
// clean-gate skip, and DroidScope's step observer. On taint-free inputs none
// of them may change what a method computes. A fuzzed method runs under each
// configuration on a fresh VM, and the runs must agree on the return value,
// the thrown class, the fault kind, the heap the method leaves behind, and
// the executed-instruction count. No run may end in a recovered panic.

const (
	fuzzClass  = "Lcom/fuzz/F;"
	fuzzHelper = "Lcom/fuzz/H;"
	fuzzLocals = 6
	fuzzRegs   = fuzzLocals + 2 // run takes two int arguments
	fuzzBudget = 5000           // Java instructions; loops end in a budget fault
)

var fuzzConfigs = []struct {
	name string
	cfg  func(*VM, *uint64)
}{
	{"vanilla", func(vm *VM, _ *uint64) { vm.TaintJava = false }},
	{"taintdroid", func(vm *VM, _ *uint64) { vm.TaintJava = true }},
	{"gated-clean", func(vm *VM, _ *uint64) { vm.TaintJava = true; vm.GateJava = true }},
	{"droidscope", func(vm *VM, steps *uint64) {
		vm.TaintJava = true
		vm.SetJavaStepFn(func(*Thread, *dex.Method, int, *dex.Insn) { *steps++ })
	}},
}

// registerFuzzHelper registers the helper class fuzzed methods use: narrow
// and wide instance and static fields, a static method returning its
// argument plus one, and one that throws.
func registerFuzzHelper(vm *VM) {
	hb := dex.NewClass(fuzzHelper)
	hb.InstanceField("i", false).InstanceField("w", true)
	hb.StaticField("s", false).StaticField("sw", true)
	hb.Method("id", "II", dex.AccStatic, 0).
		BinLit(dex.Add, 0, 0, 1).
		Return(0).
		Done()
	hb.Method("boom", "V", dex.AccStatic, 1).
		NewInstance(0, "Ljava/lang/RuntimeException;").
		Throw(0).
		Done()
	vm.RegisterClass(hb.Build())
}

// fuzzMethod decodes code into the body of F.run(II)I, four bytes per
// instruction: an operation selector and three operand bytes. A final return
// ends the body; flags bit 0 wraps it in a catch-all handler. Registers are
// in range and wide operands name a full pair, so any fault the method
// raises is the guest's, never the host's — unless flags bit 1 is set: then
// a register may lie up to two past the frame and a pair may straddle its
// end, and the method runs unvalidated, so the executor itself must refuse
// the operands with a typed fault. Without bit 1 the result may still fail
// dex.Validate (unreachable code, say), and the caller skips it.
func fuzzMethod(code []byte, flags uint8) *dex.Method {
	var insns []dex.Insn
	n := len(code) / 4
	if n > 48 {
		n = 48
	}
	span := fuzzRegs
	if flags&2 != 0 {
		span += 2
	}
	reg := func(b byte) int { return int(b) % span }
	pair := func(b byte) int { return int(b) % (span - 1) }
	tgt := func(b byte) int { return int(b) % (n + 1) }
	for i := 0; i < n; i++ {
		op, x, y, z := code[4*i], code[4*i+1], code[4*i+2], code[4*i+3]
		lit := int64(int16(binary.LittleEndian.Uint16([]byte{y, z})))
		ar := dex.Arith(1 + int(z)%11)
		far := dex.Arith(1 + int(z)%5)
		var in dex.Insn
		switch op % 30 {
		case 0:
			in = dex.Insn{Op: dex.Const, A: reg(x), Lit: lit}
		case 1:
			in = dex.Insn{Op: dex.ConstWide, A: pair(x), Lit: lit << 20}
		case 2:
			in = dex.Insn{Op: dex.Move, A: reg(x), B: reg(y)}
		case 3:
			in = dex.Insn{Op: dex.MoveWide, A: pair(x), B: pair(y)}
		case 4:
			in = dex.Insn{Op: dex.BinOp, Ar: ar, A: reg(x), B: reg(y), C: reg(z >> 4)}
		case 5:
			in = dex.Insn{Op: dex.BinOpLit, Ar: ar, A: reg(x), B: reg(y), Lit: int64(int8(z)) >> 2}
		case 6:
			in = dex.Insn{Op: dex.BinOpWide, Ar: ar, A: pair(x), B: pair(y), C: pair(z >> 4)}
		case 7:
			in = dex.Insn{Op: dex.BinOpFloat, Ar: far, A: reg(x), B: reg(y), C: reg(z >> 4)}
		case 8:
			in = dex.Insn{Op: dex.BinOpDouble, Ar: far, A: pair(x), B: pair(y), C: pair(z >> 4)}
		case 9:
			conv := []dex.Code{dex.IntToFloat, dex.FloatToInt, dex.IntToDouble, dex.DoubleToInt, dex.IntToLong, dex.LongToInt}
			in = dex.Insn{Op: conv[int(z)%len(conv)], A: pair(x), B: pair(y)}
		case 10:
			cmp := []dex.Code{dex.CmpFloat, dex.CmpDouble, dex.CmpLong}
			in = dex.Insn{Op: cmp[int(z)%len(cmp)], A: reg(x), B: pair(y), C: pair(z >> 4)}
		case 11:
			in = dex.Insn{Op: dex.IfTest, Cmp: dex.Cmp(1 + int(z)%6), A: reg(x), B: reg(y), Tgt: tgt(z)}
		case 12:
			in = dex.Insn{Op: dex.IfTestZ, Cmp: dex.Cmp(1 + int(z)%6), A: reg(x), Tgt: tgt(y)}
		case 13:
			in = dex.Insn{Op: dex.Goto, Tgt: tgt(y)}
		case 14:
			// The size is a small constant: a size from a fuzzed register
			// mostly exhausts the heap, which ends the run by panic.
			insns = append(insns, dex.Insn{Op: dex.Const, A: reg(y), Lit: int64(z % 32)})
			in = dex.Insn{Op: dex.NewArray, A: reg(x), B: reg(y), Str: []string{"I", "B", "C", "J"}[z%4]}
		case 15:
			in = dex.Insn{Op: dex.ArrayLength, A: reg(x), B: reg(y)}
		case 16:
			in = dex.Insn{Op: dex.Aget, A: reg(x), B: reg(y), C: reg(z)}
		case 17:
			in = dex.Insn{Op: dex.Aput, A: reg(x), B: reg(y), C: reg(z)}
		case 18:
			in = dex.Insn{Op: dex.AgetWide, A: pair(x), B: reg(y), C: reg(z)}
		case 19:
			in = dex.Insn{Op: dex.AputWide, A: pair(x), B: reg(y), C: reg(z)}
		case 20:
			in = dex.Insn{Op: dex.NewInstance, A: reg(x), ClassName: fuzzHelper}
		case 21:
			in = dex.Insn{Op: []dex.Code{dex.Iget, dex.Iput}[z%2], A: reg(x), B: reg(y), ClassName: fuzzHelper, MemberName: "i"}
		case 22:
			in = dex.Insn{Op: []dex.Code{dex.IgetWide, dex.IputWide}[z%2], A: pair(x), B: reg(y), ClassName: fuzzHelper, MemberName: "w"}
		case 23:
			in = dex.Insn{Op: []dex.Code{dex.Sget, dex.Sput}[z%2], A: reg(x), ClassName: fuzzHelper, MemberName: "s"}
		case 24:
			in = dex.Insn{Op: []dex.Code{dex.SgetWide, dex.SputWide}[z%2], A: pair(x), ClassName: fuzzHelper, MemberName: "sw"}
		case 25:
			insns = append(insns, dex.Insn{Op: dex.InvokeStatic, ClassName: fuzzHelper, MemberName: "id", Shorty: "II", Args: []int{reg(x)}})
			in = dex.Insn{Op: dex.MoveResult, A: reg(y)}
		case 26:
			in = dex.Insn{Op: dex.ConstString, A: reg(x), Str: []string{"a", "b"}[z%2]}
		case 27:
			in = dex.Insn{Op: dex.Throw, A: reg(x)}
		case 28:
			in = dex.Insn{Op: dex.InvokeStatic, ClassName: fuzzHelper, MemberName: "boom", Shorty: "V"}
		default:
			in = dex.Insn{Op: dex.Return, A: reg(x)}
		}
		insns = append(insns, in)
	}
	// Invokes emit two instructions, so targets computed against n may have
	// drifted past the end; clamp them onto the final return.
	insns = append(insns, dex.Insn{Op: dex.Return, A: 0})
	for i := range insns {
		if insns[i].Tgt >= len(insns) {
			insns[i].Tgt = len(insns) - 1
		}
	}
	cb := dex.NewClass(fuzzClass)
	m := cb.Method("run", "III", dex.AccStatic, fuzzLocals).Nop().Done()
	m.Insns = insns
	if flags&1 != 0 {
		end := len(insns)
		m.Insns = append(m.Insns,
			dex.Insn{Op: dex.MoveException, A: 1},
			dex.Insn{Op: dex.Return, A: 0})
		m.Tries = []dex.TryEntry{{Start: 0, End: end, Handler: end}}
	}
	return m
}

var budgetKind = fault.BudgetExceeded.String()

// fuzzOutcome is everything a run leaves observable.
type fuzzOutcome struct {
	ret    uint64
	taint  taint.Tag
	thrown string
	fault  string
	heap   string
	insns  uint64
}

// heapDigest renders the heap the run leaves: every object by address, with
// its class, string, array bytes and field words, and the helper's statics.
func heapDigest(vm *VM) string {
	addrs := make([]uint32, 0, len(vm.objects))
	for a := range vm.objects {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var b strings.Builder
	for _, a := range addrs {
		o := vm.objects[a]
		name := ""
		if o.Class != nil {
			name = o.Class.Name
		}
		fmt.Fprintf(&b, "%x %s %q %x %v\n", a, name, o.Str, o.Data, o.Fields)
	}
	if h, ok := vm.classes[fuzzHelper]; ok {
		fmt.Fprintf(&b, "statics %v\n", h.StaticData)
	}
	return b.String()
}

// fuzzRun runs one method on a fresh VM under one configuration: a parity
// method when which selects one, the decoded body otherwise. It returns
// nil when the decoded body fails dex.Validate, unless flags bit 1 asks for
// an unvalidated run.
func fuzzRun(t *testing.T, which uint8, x, y uint32, code []byte, flags uint8, cfg func(*VM, *uint64)) (*fuzzOutcome, uint64) {
	vm := newVM(t)
	var steps uint64
	cfg(vm, &steps)
	registerFuzzHelper(vm)
	class, method := fuzzClass, "run"
	args := []uint32{x, y}
	if int(which) > 0 && int(which) <= len(parityMethods) {
		registerParityClasses(vm)
		pm := parityMethods[which-1]
		class, method, args = "Lcom/parity/K;", pm.name, args[:pm.args]
	} else {
		m := fuzzMethod(code, flags)
		if flags&2 == 0 && m.Validate() != nil {
			return nil, 0
		}
		vm.RegisterClass(m.Class)
	}
	vm.JavaBudget = fuzzBudget
	ret, rt, thrown, err := vm.InvokeByName(class, method, args, nil)
	out := &fuzzOutcome{ret: ret, taint: rt, heap: heapDigest(vm), insns: vm.JavaInsnCount}
	if thrown != nil && thrown.Class != nil {
		out.thrown = thrown.Class.Name
	}
	if err != nil {
		f, ok := fault.Of(err)
		if !ok {
			t.Fatalf("untyped error: %v", err)
		}
		if f.Kind == fault.InternalError {
			t.Fatalf("recovered host panic: %v", err)
		}
		out.fault = f.Kind.String()
	}
	return out, steps
}

// parityMethods are TestTranslateParity's methods with their int argument
// counts; the fuzzer runs them on fuzzed arguments.
var parityMethods = []struct {
	name string
	args int
}{
	{"arith", 1}, {"fp", 1}, {"arrays", 1}, {"objs", 1}, {"excep", 2}, {"uncaught", 0}, {"badcall", 0},
}

// FuzzDalvikEngine runs fuzzed methods under every executor configuration
// and requires the runs to agree (see the comment at the top of the file).
func FuzzDalvikEngine(f *testing.F) {
	for i, pm := range parityMethods {
		for _, args := range [][2]uint32{{50, 0}, {12, 0}, {16, 0}, {5, 0}, {20, 4}, {20, 0}} {
			if pm.args == 0 && args != [2]uint32{50, 0} {
				continue
			}
			f.Add(uint8(i+1), args[0], args[1], []byte(nil), uint8(0))
		}
	}
	// A counted loop over an array, a field round trip and an invoke.
	f.Add(uint8(0), uint32(9), uint32(3), []byte{
		0, 2, 4, 0, // const v2, 4
		14, 3, 2, 0, // new-array v3, v2
		17, 6, 3, 7, // aput v6, v3[v7]
		20, 4, 0, 0, // new-instance v4
		21, 6, 4, 1, // iput v6, v4.i
		25, 6, 5, 0, // invoke id(v6); move-result v5
		5, 6, 6, 0xfc, // add-int/lit v6, v6, -1
		12, 6, 2, 3, // if-gtz v6 -> 2
	}, uint8(1))
	f.Fuzz(func(t *testing.T, which uint8, x, y uint32, code []byte, flags uint8) {
		var ref *fuzzOutcome
		for _, c := range fuzzConfigs {
			got, steps := fuzzRun(t, which, x, y, code, flags, c.cfg)
			if got == nil {
				return
			}
			// A budget fault counts the instruction it refuses to run.
			if ran := got.insns; c.name == "droidscope" && steps != ran && !(got.fault == budgetKind && steps == ran-1) {
				t.Errorf("droidscope: observer saw %d instructions, executor counted %d (%+v)", steps, ran, *got)
			}
			if got.taint != 0 {
				t.Errorf("%s: taint-free inputs returned taint %v", c.name, got.taint)
			}
			if ref == nil {
				ref = got
				continue
			}
			if *got != *ref {
				t.Errorf("%s diverges from %s:\n got %+v\nwant %+v", c.name, fuzzConfigs[0].name, *got, *ref)
			}
		}
	})
}
