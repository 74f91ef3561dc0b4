package dvm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/taint"
)

// This file is the DVM's one Dalvik executor. On its first invocation a
// method is decoded into a []jop indexed 1:1 with its dex pcs, so branch
// targets, try handlers and the step observer's pc are the bytecode's own.
// Decoding fuses the arithmetic and comparison sub-opcodes into the
// operation, hoists register numbers, literals and branch targets out of the
// dex.Insn, and resolves class, field and static/direct method references
// ahead. The decode is cached in dex.Method.Compiled and is redone only when
// a class registration (or a snapshot restore, which rewinds the class
// table) could change a resolution: both bump vm.decodeEpoch.
//
// What the environment decides stays out of the decode, as per-frame flags:
// the three TaintDroid behaviours (propagate; skip every tag while the gate
// is clean; clear tags on constant writes when TaintJava is off with tags
// live) and DroidScope's per-instruction step observer. A frame reads them
// at entry and again after every invoke, the only place a callee can flip
// the taint latch, install an observer or register a class, so either takes
// effect before the frame's next bytecode. The instruction count is bumped
// per instruction against a frame-local budget limit: it stays exact when a
// run unwinds by panic (heap exhaustion), and it measured no slower than
// settling a frame-local count in bulk (EXPERIMENTS, "One Dalvik
// executor").

// jcode is a decoded operation: a dex.Code with the arithmetic operator or
// comparison fused in where the instruction carries one.
type jcode uint8

const (
	jBad jcode = iota // unimplemented dex.Code
	jNop
	jConst
	jConstWide
	jConstString
	jMove
	jMoveWide
	jMoveResult
	jMoveResultWide
	jMoveException
	jReturnVoid
	jReturn
	jReturnWide
	jNewInstance
	jNewArray
	jArrayLength
	jAget
	jAgetWide
	jAput
	jAputWide
	jIget
	jIgetWide
	jIput
	jIputWide
	jSget
	jSgetWide
	jSput
	jSputWide
	jInvoke // static or direct: target resolved at decode
	jInvokeVirtual
	jGoto
	jIfEq // jIfEq..jIfLe follow dex.Cmp order
	jIfNe
	jIfLt
	jIfGe
	jIfGt
	jIfLe
	jIfEqz // jIfEqz..jIfLez likewise
	jIfNez
	jIfLtz
	jIfGez
	jIfGtz
	jIfLez
	jAdd // jAdd..jUshr follow dex.Arith order
	jSub
	jMul
	jDiv
	jRem
	jAnd
	jOr
	jXor
	jShl
	jShr
	jUshr
	jAddLit // jAddLit..jUshrLit likewise
	jSubLit
	jMulLit
	jDivLit
	jRemLit
	jAndLit
	jOrLit
	jXorLit
	jShlLit
	jShrLit
	jUshrLit
	jBin    // int binop with an operator outside dex.Arith
	jBinLit // likewise, literal form
	jBinWide
	jBinFloat
	jBinDouble
	jIntToFloat
	jFloatToInt
	jIntToDouble
	jDoubleToInt
	jIntToLong
	jLongToInt
	jCmpFloat
	jCmpDouble
	jCmpLong
	jThrow
)

// jop is one decoded instruction.
type jop struct {
	code    jcode
	ar      dex.Arith // wide, float and double binops, and jBin/jBinLit
	slot    int32     // instance-field slot (VM.FieldSlot); new-instance slot count
	a, b, c int       // registers
	tgt     int       // branch target
	lit     uint64    // const, const-wide and binop/lit literal (low 32 bits but for const-wide)

	insn *dex.Insn   // the source instruction: observer, interning and fault text
	cls  *dex.Class  // new-instance and static-field class; invoke-virtual cache key
	fld  *dex.Field  // field access
	meth *dex.Method // invoke target; invoke-virtual cache value
}

// decoded is one method's decode, owned by the VM and decode epoch that
// built it; dex.Method.Compiled caches it and a mismatch on either decodes
// again.
type decoded struct {
	vm    *VM
	epoch uint64
	ops   []jop
}

// decodedFor returns a current decode of m.
func (vm *VM) decodedFor(m *dex.Method) *decoded {
	if d, ok := m.Compiled.(*decoded); ok && d.vm == vm && d.epoch == vm.decodeEpoch {
		return d
	}
	d := &decoded{vm: vm, epoch: vm.decodeEpoch, ops: make([]jop, len(m.Insns))}
	for pc := range m.Insns {
		d.ops[pc] = vm.decode(&m.Insns[pc])
		if m.CheckOperands(pc) != nil {
			d.ops[pc].code = jBad
		}
	}
	m.Compiled = d
	vm.JavaTransMethods++
	return d
}

// plainCodes maps the dex.Codes that decode one-to-one; anything else
// maps to jBad unless decode fuses it.
var plainCodes = [...]jcode{
	dex.Nop: jNop, dex.Const: jConst, dex.ConstWide: jConstWide, dex.ConstString: jConstString,
	dex.Move: jMove, dex.MoveWide: jMoveWide, dex.MoveResult: jMoveResult,
	dex.MoveResultWide: jMoveResultWide, dex.MoveException: jMoveException,
	dex.ReturnVoid: jReturnVoid, dex.Return: jReturn, dex.ReturnWide: jReturnWide,
	dex.NewInstance: jNewInstance, dex.NewArray: jNewArray, dex.ArrayLength: jArrayLength,
	dex.Aget: jAget, dex.AgetWide: jAgetWide, dex.Aput: jAput, dex.AputWide: jAputWide,
	dex.Iget: jIget, dex.IgetWide: jIgetWide, dex.Iput: jIput, dex.IputWide: jIputWide,
	dex.Sget: jSget, dex.SgetWide: jSgetWide, dex.Sput: jSput, dex.SputWide: jSputWide,
	dex.InvokeVirtual: jInvokeVirtual, dex.InvokeDirect: jInvoke, dex.InvokeStatic: jInvoke,
	dex.Goto: jGoto, dex.BinOpWide: jBinWide, dex.BinOpFloat: jBinFloat, dex.BinOpDouble: jBinDouble,
	dex.IntToFloat: jIntToFloat, dex.FloatToInt: jFloatToInt, dex.IntToDouble: jIntToDouble,
	dex.DoubleToInt: jDoubleToInt, dex.IntToLong: jIntToLong, dex.LongToInt: jLongToInt,
	dex.CmpFloat: jCmpFloat, dex.CmpDouble: jCmpDouble, dex.CmpLong: jCmpLong, dex.Throw: jThrow,
}

// decode builds one jop. A resolution that fails stays nil, and the
// executor raises at run time the fault or exception the instruction has
// always raised.
func (vm *VM) decode(insn *dex.Insn) jop {
	op := jop{insn: insn, ar: insn.Ar, a: insn.A, b: insn.B, c: insn.C, tgt: insn.Tgt, lit: uint64(insn.Lit)}
	if int(insn.Op) < len(plainCodes) {
		op.code = plainCodes[insn.Op]
	}
	switch insn.Op {
	case dex.NewInstance:
		if op.cls = vm.classes[insn.ClassName]; op.cls != nil {
			op.slot = int32(vm.instanceSlots(op.cls))
		}
	case dex.Iget, dex.IgetWide, dex.Iput, dex.IputWide:
		if insn.ResolvedField == nil {
			insn.ResolvedField, _ = vm.lookupField(vm.classes[insn.ClassName], insn.MemberName)
		}
		if op.fld = insn.ResolvedField; op.fld != nil {
			op.slot = int32(vm.FieldSlot(op.fld))
		}
	case dex.Sget, dex.SgetWide, dex.Sput, dex.SputWide:
		op.cls, op.fld, _ = vm.staticField(insn)
	case dex.InvokeStatic, dex.InvokeDirect:
		if insn.ResolvedMethod == nil {
			if cls, ok := vm.classes[insn.ClassName]; ok {
				insn.ResolvedMethod, _ = cls.Method(insn.MemberName)
			}
		}
		op.meth = insn.ResolvedMethod
	case dex.IfTest, dex.IfTestZ:
		switch {
		case insn.Cmp < dex.Eq || insn.Cmp > dex.Le:
			op.code = jNop // an unknown comparison never branches
		case insn.Op == dex.IfTest:
			op.code = jIfEq + jcode(insn.Cmp-dex.Eq)
		default:
			op.code = jIfEqz + jcode(insn.Cmp-dex.Eq)
		}
	case dex.BinOp, dex.BinOpLit:
		lit := insn.Op == dex.BinOpLit
		switch {
		case insn.Ar < dex.Add || insn.Ar > dex.Ushr:
			op.code = jBin
			if lit {
				op.code = jBinLit
			}
		case lit:
			op.code = jAddLit + jcode(insn.Ar-dex.Add)
		default:
			op.code = jAdd + jcode(insn.Ar-dex.Add)
		}
	}
	return op
}

// Invoke runs a method on thread th. args are register words (wide arguments
// as two consecutive words, object arguments as direct pointers); taints are
// aligned with args. It returns the 64-bit return value, its taint, a thrown
// exception object if the method completed abruptly, and an execution error
// for genuine emulator faults.
func (vm *VM) Invoke(th *Thread, m *dex.Method, args []uint32, taints []taint.Tag) (ret uint64, rt taint.Tag, thrown *Object, err error) {
	if f := fault.Hit(SiteInvoke, 0); f != nil {
		f.Method = m.FullName()
		return 0, 0, nil, f
	}
	prev := vm.curThread
	vm.curThread = th
	defer func() { vm.curThread = prev }()

	// Taint handed in from outside the executor (entry-point taints, hook
	// writes) must flip the latch before any frame slot holds a nonzero tag.
	if !vm.taintSeen {
		for _, t := range taints {
			if t != 0 {
				vm.NoteTaint(t)
				break
			}
		}
	}

	if m.Builtin != nil {
		b, ok := m.Builtin.(Builtin)
		if !ok {
			return 0, 0, nil, vm.faultf(fault.InternalError, m, "invalid builtin binding")
		}
		ret, rt, thrown = b(vm, th, args, taints)
		if !vm.TaintJava {
			rt = 0
		}
		vm.NoteTaint(rt)
		return ret, rt, thrown, nil
	}
	if m.IsNative() {
		return vm.callJNIMethod(th, m, args, taints)
	}
	if len(args) != m.InsSize() {
		return 0, 0, nil, vm.faultf(fault.MalformedDex, m, "expects %d arg words, got %d", m.InsSize(), len(args))
	}
	if m.NumRegs < len(args) {
		return 0, 0, nil, vm.faultf(fault.MalformedDex, m, "%d registers cannot hold %d arg words", m.NumRegs, len(args))
	}
	f, ferr := th.pushFrame(m, args, taints)
	if ferr != nil {
		return 0, 0, nil, ferr
	}
	defer th.popFrame()
	if vm.InterpretHookAll {
		ctx := &CallCtx{Thread: th, JavaMethod: m, FrameAddr: f.FP, JavaTaints: taints}
		vm.internalCall("dvmInterpret", vm.callsiteOf("dvmCallMethod"), ctx, func() {
			ret, rt, thrown, err = vm.run(th, f)
		})
		return ret, rt, thrown, err
	}
	return vm.run(th, f)
}

// InvokeByName resolves class.method and invokes it (entry-point helper).
// As the top of the thread's call stack it is also the containment boundary:
// a panic escaping any layer below — including ones deliberately raised from
// contexts without an error return (heap exhaustion, hook invariants) — is
// converted to a typed fault instead of crashing batch callers. The deferred
// frame/local-ref/pad cleanups of the unwound calls all run before the
// recover, so the VM is left structurally consistent (faulting runs are
// discarded by the analyzer regardless).
func (vm *VM) InvokeByName(class, method string, args []uint32, taints []taint.Tag) (ret uint64, rt taint.Tag, thrown *Object, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.FromPanic("dvm", r)
		}
	}()
	c, ok := vm.classes[class]
	if !ok {
		return 0, 0, nil, vm.faultf(fault.MalformedDex, nil, "unknown class %s", class)
	}
	m, ok := c.Method(method)
	if !ok {
		return 0, 0, nil, vm.faultf(fault.MalformedDex, nil, "unknown method %s.%s", class, method)
	}
	if taints == nil {
		taints = make([]taint.Tag, len(args))
	}
	return vm.Invoke(vm.MainThread, m, args, taints)
}

// javaLimit is the JavaInsnCount past which the run faults.
func (vm *VM) javaLimit() uint64 {
	if vm.JavaBudget == 0 {
		return math.MaxUint64
	}
	return vm.JavaBudget
}

const (
	npeClass   = "Ljava/lang/NullPointerException;"
	aioobClass = "Ljava/lang/ArrayIndexOutOfBoundsException;"
	arithClass = "Ljava/lang/ArithmeticException;"
	rteClass   = "Ljava/lang/RuntimeException;"
)

// run executes the method of frame f until it returns, throws or faults.
func (vm *VM) run(th *Thread, f *Frame) (ret uint64, rt taint.Tag, out *Object, err error) {
	m := f.Method
	d := vm.decodedFor(m)
	ops := d.ops

	// Per-frame flags, refreshed after every invoke. While clean, every
	// taint slot is provably zero, so tag clears (not just merges) are
	// skipped; tainting propagates; neither clears tags on constant writes.
	step := vm.javaStepFn
	clean := vm.GateJava && !vm.taintSeen
	tainting := vm.TaintJava && !clean
	limit := vm.javaLimit()

	pc := 0
loop:
	for {
		if uint(pc) >= uint(len(ops)) {
			err = vm.faultf(fault.MalformedDex, m, "pc %d out of range", pc)
			break
		}
		op := &ops[pc]
		vm.JavaInsnCount++
		if vm.JavaInsnCount > limit {
			err = vm.javaBudgetFault(m)
			break
		}
		if step != nil {
			step(th, m, pc, op.insn)
		}
		A, B, C := op.a, op.b, op.c

		var thrown *Object
		switch op.code {
		case jNop:

		case jConst:
			f.setReg(A, uint32(op.lit))
			if !clean {
				f.setTag(A, 0)
			}
		case jConstWide:
			f.setWide(A, op.lit)
			if !clean {
				f.setTag(A, 0)
				f.setTag(A+1, 0)
			}
		case jConstString:
			f.setReg(A, vm.internString(op.insn).Addr)
			if !clean {
				f.setTag(A, 0)
			}

		case jMove:
			f.setReg(A, f.reg(B))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jMoveWide:
			f.setWide(A, f.wide(B))
			if tainting {
				f.setTag(A, f.tag(B))
				f.setTag(A+1, f.tag(B+1))
			}
		case jMoveResult:
			f.setReg(A, uint32(th.RetVal))
			if tainting {
				f.setTag(A, th.RetTaint)
			}
		case jMoveResultWide:
			f.setWide(A, th.RetVal)
			if tainting {
				f.setTag(A, th.RetTaint)
				f.setTag(A+1, th.RetTaint)
			}
		case jMoveException:
			if th.Exception == nil {
				err = vm.faultf(fault.MalformedDex, m, "move-exception with no pending exception at pc %d", pc)
				break loop
			}
			f.setReg(A, th.Exception.Addr)
			if tainting {
				f.setTag(A, th.Exception.Taint)
			}
			th.Exception = nil

		case jReturnVoid:
			break loop
		case jReturn:
			ret = uint64(f.reg(A))
			if !clean {
				rt = f.tag(A)
			}
			break loop
		case jReturnWide:
			ret = f.wide(A)
			if !clean {
				rt = f.wideTag(A)
			}
			break loop

		case jNewInstance:
			if op.cls == nil {
				err = vm.faultf(fault.MalformedDex, m, "unknown class %s", op.insn.ClassName)
				break loop
			}
			f.setReg(A, vm.newInstance(op.cls, int(op.slot)).Addr)
			if !clean {
				f.setTag(A, 0)
			}
		case jNewArray:
			size := int(int32(f.reg(B)))
			if size < 0 {
				thrown = vm.makeThrowable(th, rteClass, "negative array size")
				break
			}
			f.setReg(A, vm.NewArray(op.insn.Str[0], size).Addr)
			if !clean {
				f.setTag(A, 0)
			}
		case jArrayLength:
			arr, aerr := vm.arrayAt(m, f.reg(B))
			if aerr != nil {
				thrown = vm.makeThrowable(th, npeClass, aerr.Error())
				break
			}
			f.setReg(A, uint32(arr.Len))
			if tainting {
				f.setTag(A, arr.Taint|f.tag(B))
			}

		case jAget, jAgetWide, jAput, jAputWide:
			arr, idx, ex := vm.element(th, f, m, B, C)
			if ex != nil {
				thrown = ex
				break
			}
			if (op.code == jAgetWide || op.code == jAputWide) && arr.ElemWidth != 8 {
				err = vm.misfit(m, pc, op, fmt.Sprintf("a %c array", arr.ElemKind))
				break loop
			}
			switch op.code {
			case jAget:
				f.setReg(A, arr.elem(idx))
				if tainting {
					// TaintDroid keeps a single tag per array object.
					f.setTag(A, arr.Taint)
				}
			case jAgetWide:
				f.setWide(A, binary.LittleEndian.Uint64(arr.Data[idx*8:]))
				if tainting {
					f.setTag(A, arr.Taint)
					f.setTag(A+1, arr.Taint)
				}
			case jAput:
				arr.setElem(idx, f.reg(A))
				if tainting {
					arr.Taint |= f.tag(A)
				}
			default:
				binary.LittleEndian.PutUint64(arr.Data[idx*8:], f.wide(A))
				if tainting {
					arr.Taint |= f.tag(A) | f.tag(A+1)
				}
			}

		case jIget, jIgetWide, jIput, jIputWide:
			o, ferr := vm.instanceField(m, f.reg(B), op)
			if ferr != nil {
				thrown = vm.makeThrowable(th, npeClass, ferr.Error())
				break
			}
			i := int(op.slot)
			if i+op.width() > len(o.Fields) {
				err = vm.misfit(m, pc, op, fmt.Sprintf("an object with %d field slots", len(o.Fields)))
				break loop
			}
			switch op.code {
			case jIget:
				f.setReg(A, o.Fields[i])
				if tainting {
					f.setTag(A, o.FieldTaints[i])
				}
			case jIgetWide:
				f.setWide(A, uint64(o.Fields[i])|uint64(o.Fields[i+1])<<32)
				if tainting {
					f.setTag(A, o.FieldTaints[i])
					f.setTag(A+1, o.FieldTaints[i+1])
				}
			case jIput:
				o.Fields[i] = f.reg(A)
				if tainting {
					o.FieldTaints[i] = f.tag(A)
				}
			default:
				v := f.wide(A)
				o.Fields[i] = uint32(v)
				o.Fields[i+1] = uint32(v >> 32)
				if tainting {
					o.FieldTaints[i] = f.tag(A)
					o.FieldTaints[i+1] = f.tag(A + 1)
				}
			}

		case jSget, jSgetWide, jSput, jSputWide:
			cls, fld := op.cls, op.fld
			if cls == nil {
				if cls, fld, err = vm.staticField(op.insn); err != nil {
					break loop
				}
			}
			i := fld.Index
			if i+op.width() > len(cls.StaticData) {
				err = vm.misfit(m, pc, op, fmt.Sprintf("%d static slots", len(cls.StaticData)))
				break loop
			}
			switch op.code {
			case jSget:
				f.setReg(A, cls.StaticData[i])
				if tainting {
					f.setTag(A, taint.Tag(cls.StaticTaints[i]))
				}
			case jSgetWide:
				f.setReg(A, cls.StaticData[i])
				f.setReg(A+1, cls.StaticData[i+1])
				if tainting {
					f.setTag(A, taint.Tag(cls.StaticTaints[i]))
					f.setTag(A+1, taint.Tag(cls.StaticTaints[i+1]))
				}
			case jSput:
				cls.StaticData[i] = f.reg(A)
				if tainting {
					cls.StaticTaints[i] = uint32(f.tag(A))
				}
			default:
				cls.StaticData[i] = f.reg(A)
				cls.StaticData[i+1] = f.reg(A + 1)
				if tainting {
					cls.StaticTaints[i] = uint32(f.tag(A))
					cls.StaticTaints[i+1] = uint32(f.tag(A + 1))
				}
			}

		case jInvoke, jInvokeVirtual:
			target := op.meth
			if op.code == jInvokeVirtual {
				target, thrown = vm.virtualTarget(th, f, op)
			} else if target == nil {
				thrown = vm.makeThrowable(th, npeClass, vm.unresolved(op.insn))
			}
			if thrown != nil {
				break
			}
			regs := op.insn.Args
			args, taints := vm.getScratch(len(regs))
			for i, r := range regs {
				args[i] = f.reg(r)
			}
			if !clean {
				// A clean frame's slots are all zero, and pooled scratch
				// taints are handed out zeroed.
				for i, r := range regs {
					taints[i] = f.tag(r)
				}
			}
			r, t, threw, ierr := vm.Invoke(th, target, args, taints)
			vm.putScratch(args, taints)
			if ierr != nil {
				err = ierr
				break loop
			}
			// The callee may have flipped the latch, installed an observer,
			// registered a class or spent budget: refresh before the next
			// instruction.
			limit = vm.javaLimit()
			step = vm.javaStepFn
			clean = vm.GateJava && !vm.taintSeen
			tainting = vm.TaintJava && !clean
			if d.epoch != vm.decodeEpoch {
				d = vm.decodedFor(m)
				ops = d.ops
			}
			if threw != nil {
				thrown = threw
				break
			}
			th.RetVal = r
			// The invoke itself may have run the first source and flipped
			// the latch; its return taint must then survive.
			if !tainting {
				t = 0
			}
			th.RetTaint = t

		case jGoto:
			pc = op.tgt
			continue
		case jIfEq:
			if int32(f.reg(A)) == int32(f.reg(B)) {
				pc = op.tgt
				continue
			}
		case jIfNe:
			if int32(f.reg(A)) != int32(f.reg(B)) {
				pc = op.tgt
				continue
			}
		case jIfLt:
			if int32(f.reg(A)) < int32(f.reg(B)) {
				pc = op.tgt
				continue
			}
		case jIfGe:
			if int32(f.reg(A)) >= int32(f.reg(B)) {
				pc = op.tgt
				continue
			}
		case jIfGt:
			if int32(f.reg(A)) > int32(f.reg(B)) {
				pc = op.tgt
				continue
			}
		case jIfLe:
			if int32(f.reg(A)) <= int32(f.reg(B)) {
				pc = op.tgt
				continue
			}
		case jIfEqz:
			if int32(f.reg(A)) == 0 {
				pc = op.tgt
				continue
			}
		case jIfNez:
			if int32(f.reg(A)) != 0 {
				pc = op.tgt
				continue
			}
		case jIfLtz:
			if int32(f.reg(A)) < 0 {
				pc = op.tgt
				continue
			}
		case jIfGez:
			if int32(f.reg(A)) >= 0 {
				pc = op.tgt
				continue
			}
		case jIfGtz:
			if int32(f.reg(A)) > 0 {
				pc = op.tgt
				continue
			}
		case jIfLez:
			if int32(f.reg(A)) <= 0 {
				pc = op.tgt
				continue
			}

		// Fused int binops. uint32 arithmetic is bit-identical to int32
		// arithmetic for everything but division, remainder and the
		// arithmetic shift. Taint: result = union of operand taints.
		case jAdd:
			f.setReg(A, f.reg(B)+f.reg(C))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jSub:
			f.setReg(A, f.reg(B)-f.reg(C))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jMul:
			f.setReg(A, f.reg(B)*f.reg(C))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jAnd:
			f.setReg(A, f.reg(B)&f.reg(C))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jOr:
			f.setReg(A, f.reg(B)|f.reg(C))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jXor:
			f.setReg(A, f.reg(B)^f.reg(C))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jShl:
			f.setReg(A, f.reg(B)<<(f.reg(C)&31))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jShr:
			f.setReg(A, uint32(int32(f.reg(B))>>(f.reg(C)&31)))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jUshr:
			f.setReg(A, f.reg(B)>>(f.reg(C)&31))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jAddLit:
			f.setReg(A, f.reg(B)+uint32(op.lit))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jSubLit:
			f.setReg(A, f.reg(B)-uint32(op.lit))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jMulLit:
			f.setReg(A, f.reg(B)*uint32(op.lit))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jAndLit:
			f.setReg(A, f.reg(B)&uint32(op.lit))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jOrLit:
			f.setReg(A, f.reg(B)|uint32(op.lit))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jXorLit:
			f.setReg(A, f.reg(B)^uint32(op.lit))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jShlLit:
			f.setReg(A, f.reg(B)<<(uint32(op.lit)&31))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jShrLit:
			f.setReg(A, uint32(int32(f.reg(B))>>(uint32(op.lit)&31)))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jUshrLit:
			f.setReg(A, f.reg(B)>>(uint32(op.lit)&31))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jDiv, jRem, jDivLit, jRemLit, jBin, jBinLit:
			lit := op.code == jDivLit || op.code == jRemLit || op.code == jBinLit
			y := int32(uint32(op.lit))
			if !lit {
				y = int32(f.reg(C))
			}
			if (op.ar == dex.Div || op.ar == dex.Rem) && y == 0 {
				thrown = vm.makeThrowable(th, arithClass, "divide by zero")
				break
			}
			var v int32 // jBin and jBinLit: an unknown operator yields 0
			switch op.code {
			case jDiv, jDivLit:
				v = int32(f.reg(B)) / y
			case jRem, jRemLit:
				v = int32(f.reg(B)) % y
			}
			f.setReg(A, uint32(v))
			if tainting {
				t := f.tag(B)
				if !lit {
					t |= f.tag(C)
				}
				f.setTag(A, t)
			}
		case jBinWide:
			x := int64(f.wide(B))
			y := int64(f.wide(C))
			if (op.ar == dex.Div || op.ar == dex.Rem) && y == 0 {
				thrown = vm.makeThrowable(th, arithClass, "divide by zero")
				break
			}
			f.setWide(A, uint64(arithLong(op.ar, x, y)))
			if tainting {
				t := f.wideTag(B) | f.wideTag(C)
				f.setTag(A, t)
				f.setTag(A+1, t)
			}
		case jBinFloat:
			x := math.Float32frombits(f.reg(B))
			y := math.Float32frombits(f.reg(C))
			f.setReg(A, math.Float32bits(arithFloat(op.ar, x, y)))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jBinDouble:
			x := math.Float64frombits(f.wide(B))
			y := math.Float64frombits(f.wide(C))
			f.setWide(A, math.Float64bits(arithDouble(op.ar, x, y)))
			if tainting {
				t := f.wideTag(B) | f.wideTag(C)
				f.setTag(A, t)
				f.setTag(A+1, t)
			}

		case jIntToFloat:
			f.setReg(A, math.Float32bits(float32(int32(f.reg(B)))))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jFloatToInt:
			f.setReg(A, uint32(int32(math.Float32frombits(f.reg(B)))))
			if tainting {
				f.setTag(A, f.tag(B))
			}
		case jIntToDouble:
			f.setWide(A, math.Float64bits(float64(int32(f.reg(B)))))
			if tainting {
				t := f.tag(B)
				f.setTag(A, t)
				f.setTag(A+1, t)
			}
		case jDoubleToInt:
			f.setReg(A, uint32(int32(math.Float64frombits(f.wide(B)))))
			if tainting {
				f.setTag(A, f.wideTag(B))
			}
		case jIntToLong:
			f.setWide(A, uint64(int64(int32(f.reg(B)))))
			if tainting {
				t := f.tag(B)
				f.setTag(A, t)
				f.setTag(A+1, t)
			}
		case jLongToInt:
			f.setReg(A, uint32(f.wide(B)))
			if tainting {
				f.setTag(A, f.tag(B))
			}

		case jCmpFloat:
			x := math.Float32frombits(f.reg(B))
			y := math.Float32frombits(f.reg(C))
			f.setReg(A, uint32(cmpOrder(float64(x), float64(y))))
			if tainting {
				f.setTag(A, f.tag(B)|f.tag(C))
			}
		case jCmpDouble:
			x := math.Float64frombits(f.wide(B))
			y := math.Float64frombits(f.wide(C))
			f.setReg(A, uint32(cmpOrder(x, y)))
			if tainting {
				f.setTag(A, f.wideTag(B)|f.wideTag(C))
			}
		case jCmpLong:
			x, y := int64(f.wide(B)), int64(f.wide(C))
			v := int32(0)
			switch {
			case x < y:
				v = -1
			case x > y:
				v = 1
			}
			f.setReg(A, uint32(v))
			if tainting {
				f.setTag(A, f.wideTag(B)|f.wideTag(C))
			}

		case jThrow:
			o, ok := vm.objects[f.reg(A)]
			if !ok {
				thrown = vm.makeThrowable(th, npeClass, "throw on null")
				break
			}
			thrown = o

		default: // jBad: an unimplemented op, or operands CheckOperands refuses
			if err = m.CheckOperands(pc); err == nil {
				err = vm.faultf(fault.MalformedDex, m, "unimplemented op %s at pc %d", op.insn.Op, pc)
			}
			break loop
		}

		if thrown != nil {
			handler, ok := findHandler(vm, m, pc, thrown)
			if !ok {
				out = thrown
				break loop
			}
			th.Exception = thrown
			pc = handler
			continue
		}
		pc++
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return ret, rt, out, nil
}

// elem reads a 32-bit-or-narrower array element.
func (o *Object) elem(idx int) uint32 {
	switch o.ElemWidth {
	case 1:
		return uint32(o.Data[idx])
	case 2:
		return uint32(binary.LittleEndian.Uint16(o.Data[idx*2:]))
	default:
		return binary.LittleEndian.Uint32(o.Data[idx*4:])
	}
}

// setElem writes a 32-bit-or-narrower array element.
func (o *Object) setElem(idx int, v uint32) {
	switch o.ElemWidth {
	case 1:
		o.Data[idx] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(o.Data[idx*2:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(o.Data[idx*4:], v)
	}
}

func (vm *VM) arrayAt(m *dex.Method, addr uint32) (*Object, error) {
	o, ok := vm.objects[addr]
	if !ok || !o.IsArray {
		return nil, fmt.Errorf("%s: not an array at %#x", m.FullName(), addr)
	}
	return o, nil
}

// element resolves an array op's array and index registers, returning the
// exception a null array or an out-of-range index throws.
func (vm *VM) element(th *Thread, f *Frame, m *dex.Method, arrReg, idxReg int) (*Object, int, *Object) {
	arr, err := vm.arrayAt(m, f.reg(arrReg))
	if err != nil {
		return nil, 0, vm.makeThrowable(th, npeClass, err.Error())
	}
	idx := int(int32(f.reg(idxReg)))
	if idx < 0 || idx >= arr.Len {
		return nil, 0, vm.makeThrowable(th, aioobClass, fmt.Sprintf("index %d length %d", idx, arr.Len))
	}
	return arr, idx, nil
}

// instanceField resolves a field op's object; a field the decode
// could not resolve reports why here, after the null check, as the first
// execution always did.
func (vm *VM) instanceField(m *dex.Method, addr uint32, op *jop) (*Object, error) {
	o, ok := vm.objects[addr]
	if !ok {
		return nil, fmt.Errorf("%s: field access on null/invalid object %#x", m.FullName(), addr)
	}
	if op.fld == nil {
		insn := op.insn
		if _, ok := vm.classes[insn.ClassName]; !ok {
			return nil, fmt.Errorf("unknown class %s", insn.ClassName)
		}
		return nil, fmt.Errorf("unknown field %s.%s", insn.ClassName, insn.MemberName)
	}
	return o, nil
}

func (vm *VM) staticField(insn *dex.Insn) (*dex.Class, *dex.Field, error) {
	cls, ok := vm.classes[insn.ClassName]
	if !ok {
		return nil, nil, vm.faultf(fault.MalformedDex, nil, "unknown class %s", insn.ClassName)
	}
	if insn.ResolvedField == nil {
		fld, ok := cls.FieldByName(insn.MemberName)
		if !ok || !fld.Static {
			return nil, nil, vm.faultf(fault.MalformedDex, nil, "unknown static field %s.%s", insn.ClassName, insn.MemberName)
		}
		insn.ResolvedField = fld
	}
	return cls, insn.ResolvedField, nil
}

// width is the number of 32-bit slots a field op touches.
func (op *jop) width() int {
	if op.code == jIgetWide || op.code == jIputWide || op.code == jSgetWide || op.code == jSputWide {
		return 2
	}
	return 1
}

// misfit is the fault for an access the target's layout cannot hold — a
// wide access to a narrow array or slot, a field of another class — which a
// bytecode verifier rejects: raised as a typed fault, not a host panic.
func (vm *VM) misfit(m *dex.Method, pc int, op *jop, target string) error {
	return vm.faultf(fault.MalformedDex, m, "%s at pc %d on %s", op.insn.Op, pc, target)
}

// unresolved is the message of the exception an invoke-static or
// invoke-direct with no decoded target throws.
func (vm *VM) unresolved(insn *dex.Insn) string {
	if _, ok := vm.classes[insn.ClassName]; !ok {
		return fmt.Sprintf("unknown class %s", insn.ClassName)
	}
	return fmt.Sprintf("unknown method %s.%s", insn.ClassName, insn.MemberName)
}

// virtualTarget dispatches an invoke-virtual on its receiver's class,
// through a one-entry cache in the op (reset with the decode).
func (vm *VM) virtualTarget(th *Thread, f *Frame, op *jop) (*dex.Method, *Object) {
	insn := op.insn
	recv, ok := vm.objects[f.reg(insn.Args[0])]
	if !ok {
		return nil, vm.makeThrowable(th, npeClass,
			fmt.Sprintf("invoke-virtual %s.%s on null receiver", insn.ClassName, insn.MemberName))
	}
	cls := recv.Class
	if cls == nil {
		cls = vm.classes[insn.ClassName]
	}
	if cls != nil && cls == op.cls {
		return op.meth, nil
	}
	for walk := cls; walk != nil; walk = vm.classes[walk.Super] {
		if m, ok := walk.Method(insn.MemberName); ok {
			if cls != nil {
				op.cls, op.meth = cls, m
			}
			return m, nil
		}
	}
	return nil, vm.makeThrowable(th, npeClass,
		fmt.Sprintf("unresolvable method %s.%s", insn.ClassName, insn.MemberName))
}

// makeThrowable allocates an exception object of the named class.
func (vm *VM) makeThrowable(th *Thread, class, msg string) *Object {
	cls, ok := vm.classes[class]
	if !ok {
		cls, ok = vm.classes["Ljava/lang/Exception;"]
		if !ok {
			panic("dvm: exception classes not registered")
		}
	}
	o := vm.NewInstance(cls)
	msgObj := vm.NewString(msg)
	if len(o.Fields) > 0 {
		o.Fields[0] = msgObj.Addr
	}
	return o
}

// findHandler locates a catch handler for thrown at pc in m, walking the
// class hierarchy for type matches.
func findHandler(vm *VM, m *dex.Method, pc int, thrown *Object) (int, bool) {
	for _, t := range m.Tries {
		if pc < t.Start || pc >= t.End {
			continue
		}
		if t.Type == "" {
			return t.Handler, true
		}
		cls := thrown.Class
		for cls != nil {
			if cls.Name == t.Type {
				return t.Handler, true
			}
			cls = vm.classes[cls.Super]
		}
	}
	return 0, false
}

func arithLong(op dex.Arith, a, b int64) int64 {
	switch op {
	case dex.Add:
		return a + b
	case dex.Sub:
		return a - b
	case dex.Mul:
		return a * b
	case dex.Div:
		return a / b
	case dex.Rem:
		return a % b
	case dex.And:
		return a & b
	case dex.Or:
		return a | b
	case dex.Xor:
		return a ^ b
	case dex.Shl:
		return a << (uint64(b) & 63)
	case dex.Shr:
		return a >> (uint64(b) & 63)
	case dex.Ushr:
		return int64(uint64(a) >> (uint64(b) & 63))
	}
	return 0
}

func arithFloat(op dex.Arith, a, b float32) float32 {
	switch op {
	case dex.Add:
		return a + b
	case dex.Sub:
		return a - b
	case dex.Mul:
		return a * b
	case dex.Div:
		return a / b
	case dex.Rem:
		return float32(math.Mod(float64(a), float64(b)))
	}
	return 0
}

func arithDouble(op dex.Arith, a, b float64) float64 {
	switch op {
	case dex.Add:
		return a + b
	case dex.Sub:
		return a - b
	case dex.Mul:
		return a * b
	case dex.Div:
		return a / b
	case dex.Rem:
		return math.Mod(a, b)
	}
	return 0
}

func cmpOrder(a, b float64) int32 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
