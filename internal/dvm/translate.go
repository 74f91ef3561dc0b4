package dvm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/taint"
)

// This file is the DVM's method-granular translation engine, the Java-side
// mirror of internal/arm/translate.go. On first invocation a method's
// instruction stream is compiled into a slice of pre-resolved step closures
// in two variants:
//
//   - tainting: full TaintDroid propagation (tag clears and merges baked in);
//   - clean: the gate fast path — no taint reads or writes at all, valid
//     while the taintSeen latch is off (all Java-side taint state is provably
//     zero, see NoteTaint).
//
// The variant is selected once at frame entry from the same predicate the
// interpreter evaluated per instruction (GateJava && !taintSeen). The latch
// can only flip inside a call, so the runner re-checks it after every invoke
// step and bails from clean to tainting mid-method — the Java analog of the
// ARM engine's gateBail.
//
// Per-instruction JavaStepFn/hook checks and the two execution counters are
// hoisted out of the loop behind the translation epoch: installing a step
// function, registering a hook, or registering a class bumps vm.transEpoch,
// which invalidates every compiled method at its next dispatch and deopts
// running frames to the interpreter at their next post-call check. Counters
// are settled in bulk at frame exits.

// jstep executes one translated Dalvik instruction. Control transfers are
// communicated through the frame's scratch fields (tpc, tret/trt, thrown,
// terr) so steps allocate nothing.
type jstep func(vm *VM, th *Thread, f *Frame) jstepRes

// jstepRes is a step's control-flow outcome.
type jstepRes uint8

const (
	jsNext   jstepRes = iota // fall through to pc+1
	jsJump                   // continue at f.tpc
	jsCall                   // fall through, then run post-call checks (epoch deopt, gate bail)
	jsReturn                 // method returned f.tret with taint f.trt
	jsThrow                  // f.thrown is pending; search handlers at this pc
	jsErr                    // emulator fault f.terr
)

// compiledMethod is one translated method: both step variants plus the
// identity of the VM and epoch they were built under. The dex.Method.Compiled
// slot caches it; a mismatch on either field just retranslates.
type compiledMethod struct {
	vm    *VM
	epoch uint64
	taint []jstep
	clean []jstep
}

// compiledFor returns a current translation of m, compiling on first
// invocation and recompiling after an epoch bump.
func (vm *VM) compiledFor(m *dex.Method) *compiledMethod {
	if cm, ok := m.Compiled.(*compiledMethod); ok && cm.vm == vm && cm.epoch == vm.transEpoch {
		return cm
	}
	cm := vm.translateMethod(m)
	m.Compiled = cm
	vm.JavaTransMethods++
	return cm
}

func (vm *VM) translateMethod(m *dex.Method) *compiledMethod {
	cm := &compiledMethod{
		vm:    vm,
		epoch: vm.transEpoch,
		taint: make([]jstep, len(m.Insns)),
		clean: make([]jstep, len(m.Insns)),
	}
	for pc := range m.Insns {
		cm.taint[pc], cm.clean[pc] = vm.buildStep(m, pc, &m.Insns[pc])
	}
	return cm
}

// runTranslated executes f's method through its compiled form, dispatching
// the variant on the Java gate and settling the instruction counters in bulk.
func (vm *VM) runTranslated(th *Thread, f *Frame, cm *compiledMethod) (uint64, taint.Tag, *Object, error) {
	m := f.Method
	clean := vm.GateJava && !vm.taintSeen
	steps := cm.taint
	if clean {
		steps = cm.clean
		vm.JavaCleanFrames++
	} else {
		vm.JavaTaintFrames++
	}
	pc := 0
	executed := uint64(0)
	for {
		if pc < 0 || pc >= len(steps) {
			vm.JavaInsnCount += executed
			m.InsnCount += executed
			return 0, 0, nil, vm.faultf(fault.MalformedDex, m, "pc %d out of range", pc)
		}
		executed++
		if vm.JavaBudget != 0 && vm.JavaInsnCount+executed > vm.JavaBudget {
			vm.JavaInsnCount += executed
			m.InsnCount += executed
			return 0, 0, nil, vm.javaBudgetFault(m)
		}
		switch steps[pc](vm, th, f) {
		case jsNext:
			pc++
		case jsJump:
			pc = f.tpc
		case jsCall:
			// The invoke may have installed hooks/step functions (epoch) or
			// introduced the first taint (latch); both must be honored before
			// the next instruction.
			if vm.transEpoch != cm.epoch {
				vm.JavaDeopts++
				vm.JavaInsnCount += executed
				m.InsnCount += executed
				return vm.interpret(th, f, pc+1)
			}
			if clean && vm.taintSeen {
				clean, steps = false, cm.taint
				vm.JavaGateBails++
			}
			pc++
		case jsReturn:
			vm.JavaInsnCount += executed
			m.InsnCount += executed
			return f.tret, f.trt, nil, nil
		case jsThrow:
			// A throwing invoke runs the same post-call discipline before the
			// handler (or the unwind) executes.
			if clean && vm.taintSeen {
				clean, steps = false, cm.taint
				vm.JavaGateBails++
			}
			thrown := f.thrown
			f.thrown = nil
			handler, ok := findHandler(vm, m, pc, thrown)
			if !ok {
				vm.JavaInsnCount += executed
				m.InsnCount += executed
				return 0, 0, thrown, nil
			}
			th.Exception = thrown
			pc = handler
			if vm.transEpoch != cm.epoch {
				vm.JavaDeopts++
				vm.JavaInsnCount += executed
				m.InsnCount += executed
				return vm.interpret(th, f, pc)
			}
		case jsErr:
			vm.JavaInsnCount += executed
			m.InsnCount += executed
			err := f.terr
			f.terr = nil
			return 0, 0, nil, err
		}
	}
}

// errStep bakes a translate-time-known emulator fault.
func errStep(err error) jstep {
	return func(vm *VM, th *Thread, f *Frame) jstepRes {
		f.terr = err
		return jsErr
	}
}

// throwStep bakes a translate-time-known throw.
func throwStep(class, msg string) jstep {
	return func(vm *VM, th *Thread, f *Frame) jstepRes {
		f.thrown = vm.makeThrowable(th, class, msg)
		return jsThrow
	}
}

const (
	npeClass   = "Ljava/lang/NullPointerException;"
	aioobClass = "Ljava/lang/ArrayIndexOutOfBoundsException;"
	arithClass = "Ljava/lang/ArithmeticException;"
	rteClass   = "Ljava/lang/RuntimeException;"
)

// buildStep compiles one instruction into its (tainting, clean) step pair.
// Each case mirrors the corresponding interpreter arm in interp.go exactly —
// same values, same taint rules, same exception classes and messages — with
// operands and resolutions hoisted to translate time.
func (vm *VM) buildStep(m *dex.Method, pc int, insn *dex.Insn) (jstep, jstep) {
	A, B, C := insn.A, insn.B, insn.C

	switch insn.Op {
	case dex.Nop:
		s := func(vm *VM, th *Thread, f *Frame) jstepRes { return jsNext }
		return s, s

	case dex.Const:
		lit := uint32(insn.Lit)
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, lit)
			th.setRegTaint(f, A, 0)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, lit)
			return jsNext
		}
		return t, c
	case dex.ConstWide:
		lit := uint64(insn.Lit)
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, lit)
			th.setRegTaint(f, A, 0)
			th.setRegTaint(f, A+1, 0)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, lit)
			return jsNext
		}
		return t, c
	case dex.ConstString:
		// Interned lazily on first execution, not at translate time: eager
		// interning would reorder heap allocation relative to the
		// interpreter, and object addresses are observable in flow logs.
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, vm.internString(insn).Addr)
			th.setRegTaint(f, A, 0)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, vm.internString(insn).Addr)
			return jsNext
		}
		return t, c

	case dex.Move:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, th.reg(f, B))
			th.setRegTaint(f, A, th.regTaint(f, B))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, th.reg(f, B))
			return jsNext
		}
		return t, c
	case dex.MoveWide:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, th.regWide(f, B))
			th.setRegTaint(f, A, th.regTaint(f, B))
			th.setRegTaint(f, A+1, th.regTaint(f, B+1))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, th.regWide(f, B))
			return jsNext
		}
		return t, c
	case dex.MoveResult:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(th.RetVal))
			th.setRegTaint(f, A, th.RetTaint)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(th.RetVal))
			return jsNext
		}
		return t, c
	case dex.MoveResultWide:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, th.RetVal)
			th.setRegTaint(f, A, th.RetTaint)
			th.setRegTaint(f, A+1, th.RetTaint)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, th.RetVal)
			return jsNext
		}
		return t, c
	case dex.MoveException:
		noExc := vm.errorf("%s: move-exception with no pending exception", m.FullName())
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			if th.Exception == nil {
				f.terr = noExc
				return jsErr
			}
			th.setReg(f, A, th.Exception.Addr)
			th.setRegTaint(f, A, th.Exception.Taint)
			th.Exception = nil
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			if th.Exception == nil {
				f.terr = noExc
				return jsErr
			}
			th.setReg(f, A, th.Exception.Addr)
			th.Exception = nil
			return jsNext
		}
		return t, c

	case dex.ReturnVoid:
		s := func(vm *VM, th *Thread, f *Frame) jstepRes {
			f.tret, f.trt = 0, 0
			return jsReturn
		}
		return s, s
	case dex.Return:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			f.tret = uint64(th.reg(f, A))
			f.trt = th.regTaint(f, A)
			return jsReturn
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			f.tret, f.trt = uint64(th.reg(f, A)), 0
			return jsReturn
		}
		return t, c
	case dex.ReturnWide:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			f.tret = th.regWide(f, A)
			f.trt = th.regTaint(f, A) | th.regTaint(f, A+1)
			return jsReturn
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			f.tret, f.trt = th.regWide(f, A), 0
			return jsReturn
		}
		return t, c

	case dex.NewInstance:
		cls, ok := vm.classes[insn.ClassName]
		if !ok {
			// RegisterClass bumps the epoch, so a late registration
			// retranslates this method before the step could fire stale.
			e := errStep(vm.errorf("%s: unknown class %s", m.FullName(), insn.ClassName))
			return e, e
		}
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			o := vm.NewInstance(cls)
			th.setReg(f, A, o.Addr)
			th.setRegTaint(f, A, 0)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			o := vm.NewInstance(cls)
			th.setReg(f, A, o.Addr)
			return jsNext
		}
		return t, c
	case dex.NewArray:
		kind := insn.Str[0]
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			n := int(int32(th.reg(f, B)))
			if n < 0 {
				f.thrown = vm.makeThrowable(th, rteClass, "negative array size")
				return jsThrow
			}
			o := vm.NewArray(kind, n)
			th.setReg(f, A, o.Addr)
			th.setRegTaint(f, A, 0)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			n := int(int32(th.reg(f, B)))
			if n < 0 {
				f.thrown = vm.makeThrowable(th, rteClass, "negative array size")
				return jsThrow
			}
			o := vm.NewArray(kind, n)
			th.setReg(f, A, o.Addr)
			return jsNext
		}
		return t, c
	case dex.ArrayLength:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			arr, err := vm.arrayAt(m, th.reg(f, B))
			if err != nil {
				f.thrown = vm.makeThrowable(th, npeClass, err.Error())
				return jsThrow
			}
			th.setReg(f, A, uint32(arr.Len))
			th.setRegTaint(f, A, arr.Taint|th.regTaint(f, B))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			arr, err := vm.arrayAt(m, th.reg(f, B))
			if err != nil {
				f.thrown = vm.makeThrowable(th, npeClass, err.Error())
				return jsThrow
			}
			th.setReg(f, A, uint32(arr.Len))
			return jsNext
		}
		return t, c

	case dex.Aget, dex.AgetWide:
		wide := insn.Op == dex.AgetWide
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			arr, idx, res := boundsCheck(vm, th, f, m, B, C)
			if res != jsNext {
				return res
			}
			if wide {
				th.setRegWide(f, A, binary.LittleEndian.Uint64(arr.Data[idx*8:]))
				th.setRegTaint(f, A, arr.Taint)
				th.setRegTaint(f, A+1, arr.Taint)
			} else {
				th.setReg(f, A, arr.elem(idx))
				// TaintDroid keeps a single tag per array object.
				th.setRegTaint(f, A, arr.Taint)
			}
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			arr, idx, res := boundsCheck(vm, th, f, m, B, C)
			if res != jsNext {
				return res
			}
			if wide {
				th.setRegWide(f, A, binary.LittleEndian.Uint64(arr.Data[idx*8:]))
			} else {
				th.setReg(f, A, arr.elem(idx))
			}
			return jsNext
		}
		return t, c
	case dex.Aput, dex.AputWide:
		wide := insn.Op == dex.AputWide
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			arr, idx, res := boundsCheck(vm, th, f, m, B, C)
			if res != jsNext {
				return res
			}
			if wide {
				binary.LittleEndian.PutUint64(arr.Data[idx*8:], th.regWide(f, A))
				arr.Taint |= th.regTaint(f, A) | th.regTaint(f, A+1)
			} else {
				arr.setElem(idx, th.reg(f, A))
				arr.Taint |= th.regTaint(f, A)
			}
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			arr, idx, res := boundsCheck(vm, th, f, m, B, C)
			if res != jsNext {
				return res
			}
			if wide {
				binary.LittleEndian.PutUint64(arr.Data[idx*8:], th.regWide(f, A))
			} else {
				arr.setElem(idx, th.reg(f, A))
			}
			return jsNext
		}
		return t, c

	case dex.Iget, dex.IgetWide:
		wide := insn.Op == dex.IgetWide
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			o, fld, err := vm.instanceField(m, th.reg(f, B), insn)
			if err != nil {
				f.thrown = vm.makeThrowable(th, npeClass, err.Error())
				return jsThrow
			}
			if wide {
				v := uint64(o.Fields[fld.Index]) | uint64(o.Fields[fld.Index+1])<<32
				th.setRegWide(f, A, v)
				th.setRegTaint(f, A, o.FieldTaints[fld.Index])
				th.setRegTaint(f, A+1, o.FieldTaints[fld.Index+1])
			} else {
				th.setReg(f, A, o.Fields[fld.Index])
				th.setRegTaint(f, A, o.FieldTaints[fld.Index])
			}
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			o, fld, err := vm.instanceField(m, th.reg(f, B), insn)
			if err != nil {
				f.thrown = vm.makeThrowable(th, npeClass, err.Error())
				return jsThrow
			}
			if wide {
				v := uint64(o.Fields[fld.Index]) | uint64(o.Fields[fld.Index+1])<<32
				th.setRegWide(f, A, v)
			} else {
				th.setReg(f, A, o.Fields[fld.Index])
			}
			return jsNext
		}
		return t, c
	case dex.Iput, dex.IputWide:
		wide := insn.Op == dex.IputWide
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			o, fld, err := vm.instanceField(m, th.reg(f, B), insn)
			if err != nil {
				f.thrown = vm.makeThrowable(th, npeClass, err.Error())
				return jsThrow
			}
			if wide {
				v := th.regWide(f, A)
				o.Fields[fld.Index] = uint32(v)
				o.Fields[fld.Index+1] = uint32(v >> 32)
				o.FieldTaints[fld.Index] = th.regTaint(f, A)
				o.FieldTaints[fld.Index+1] = th.regTaint(f, A+1)
			} else {
				o.Fields[fld.Index] = th.reg(f, A)
				o.FieldTaints[fld.Index] = th.regTaint(f, A)
			}
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			o, fld, err := vm.instanceField(m, th.reg(f, B), insn)
			if err != nil {
				f.thrown = vm.makeThrowable(th, npeClass, err.Error())
				return jsThrow
			}
			if wide {
				v := th.regWide(f, A)
				o.Fields[fld.Index] = uint32(v)
				o.Fields[fld.Index+1] = uint32(v >> 32)
			} else {
				o.Fields[fld.Index] = th.reg(f, A)
			}
			return jsNext
		}
		return t, c

	case dex.Sget, dex.SgetWide:
		wide := insn.Op == dex.SgetWide
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			cls, fld, err := vm.staticField(insn)
			if err != nil {
				f.terr = err
				return jsErr
			}
			if wide {
				th.setReg(f, A, cls.StaticData[fld.Index])
				th.setReg(f, A+1, cls.StaticData[fld.Index+1])
				th.setRegTaint(f, A, taint.Tag(cls.StaticTaints[fld.Index]))
				th.setRegTaint(f, A+1, taint.Tag(cls.StaticTaints[fld.Index+1]))
			} else {
				th.setReg(f, A, cls.StaticData[fld.Index])
				th.setRegTaint(f, A, taint.Tag(cls.StaticTaints[fld.Index]))
			}
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			cls, fld, err := vm.staticField(insn)
			if err != nil {
				f.terr = err
				return jsErr
			}
			if wide {
				th.setReg(f, A, cls.StaticData[fld.Index])
				th.setReg(f, A+1, cls.StaticData[fld.Index+1])
			} else {
				th.setReg(f, A, cls.StaticData[fld.Index])
			}
			return jsNext
		}
		return t, c
	case dex.Sput, dex.SputWide:
		wide := insn.Op == dex.SputWide
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			cls, fld, err := vm.staticField(insn)
			if err != nil {
				f.terr = err
				return jsErr
			}
			if wide {
				cls.StaticData[fld.Index] = th.reg(f, A)
				cls.StaticData[fld.Index+1] = th.reg(f, A+1)
				cls.StaticTaints[fld.Index] = uint32(th.regTaint(f, A))
				cls.StaticTaints[fld.Index+1] = uint32(th.regTaint(f, A+1))
			} else {
				cls.StaticData[fld.Index] = th.reg(f, A)
				cls.StaticTaints[fld.Index] = uint32(th.regTaint(f, A))
			}
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			cls, fld, err := vm.staticField(insn)
			if err != nil {
				f.terr = err
				return jsErr
			}
			if wide {
				cls.StaticData[fld.Index] = th.reg(f, A)
				cls.StaticData[fld.Index+1] = th.reg(f, A+1)
			} else {
				cls.StaticData[fld.Index] = th.reg(f, A)
			}
			return jsNext
		}
		return t, c

	case dex.InvokeVirtual, dex.InvokeDirect, dex.InvokeStatic:
		return vm.buildInvoke(m, insn)

	case dex.Goto:
		tgt := insn.Tgt
		s := func(vm *VM, th *Thread, f *Frame) jstepRes {
			f.tpc = tgt
			return jsJump
		}
		return s, s
	case dex.IfTest:
		tgt, cmp := insn.Tgt, insn.Cmp
		s := func(vm *VM, th *Thread, f *Frame) jstepRes {
			if compareInt(cmp, int32(th.reg(f, A)), int32(th.reg(f, B))) {
				f.tpc = tgt
				return jsJump
			}
			return jsNext
		}
		return s, s
	case dex.IfTestZ:
		tgt, cmp := insn.Tgt, insn.Cmp
		s := func(vm *VM, th *Thread, f *Frame) jstepRes {
			if compareInt(cmp, int32(th.reg(f, A)), 0) {
				f.tpc = tgt
				return jsJump
			}
			return jsNext
		}
		return s, s

	case dex.BinOp:
		ar := insn.Ar
		divRem := ar == dex.Div || ar == dex.Rem
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := int32(th.reg(f, B))
			c := int32(th.reg(f, C))
			if divRem && c == 0 {
				f.thrown = vm.makeThrowable(th, arithClass, "divide by zero")
				return jsThrow
			}
			th.setReg(f, A, uint32(arithInt(ar, b, c)))
			// Table-driven TaintDroid rule: result = union of operand taints.
			th.setRegTaint(f, A, th.regTaint(f, B)|th.regTaint(f, C))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := int32(th.reg(f, B))
			c := int32(th.reg(f, C))
			if divRem && c == 0 {
				f.thrown = vm.makeThrowable(th, arithClass, "divide by zero")
				return jsThrow
			}
			th.setReg(f, A, uint32(arithInt(ar, b, c)))
			return jsNext
		}
		return t, c
	case dex.BinOpLit:
		ar := insn.Ar
		lit := int32(insn.Lit)
		if (ar == dex.Div || ar == dex.Rem) && lit == 0 {
			s := throwStep(arithClass, "divide by zero")
			return s, s
		}
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(arithInt(ar, int32(th.reg(f, B)), lit)))
			th.setRegTaint(f, A, th.regTaint(f, B))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(arithInt(ar, int32(th.reg(f, B)), lit)))
			return jsNext
		}
		return t, c
	case dex.BinOpWide:
		ar := insn.Ar
		divRem := ar == dex.Div || ar == dex.Rem
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := int64(th.regWide(f, B))
			c := int64(th.regWide(f, C))
			if divRem && c == 0 {
				f.thrown = vm.makeThrowable(th, arithClass, "divide by zero")
				return jsThrow
			}
			th.setRegWide(f, A, uint64(arithLong(ar, b, c)))
			t := th.regTaint(f, B) | th.regTaint(f, B+1) |
				th.regTaint(f, C) | th.regTaint(f, C+1)
			th.setRegTaint(f, A, t)
			th.setRegTaint(f, A+1, t)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := int64(th.regWide(f, B))
			c := int64(th.regWide(f, C))
			if divRem && c == 0 {
				f.thrown = vm.makeThrowable(th, arithClass, "divide by zero")
				return jsThrow
			}
			th.setRegWide(f, A, uint64(arithLong(ar, b, c)))
			return jsNext
		}
		return t, c
	case dex.BinOpFloat:
		ar := insn.Ar
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := math.Float32frombits(th.reg(f, B))
			c := math.Float32frombits(th.reg(f, C))
			th.setReg(f, A, math.Float32bits(arithFloat(ar, b, c)))
			th.setRegTaint(f, A, th.regTaint(f, B)|th.regTaint(f, C))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := math.Float32frombits(th.reg(f, B))
			c := math.Float32frombits(th.reg(f, C))
			th.setReg(f, A, math.Float32bits(arithFloat(ar, b, c)))
			return jsNext
		}
		return t, c
	case dex.BinOpDouble:
		ar := insn.Ar
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := math.Float64frombits(th.regWide(f, B))
			c := math.Float64frombits(th.regWide(f, C))
			th.setRegWide(f, A, math.Float64bits(arithDouble(ar, b, c)))
			t := th.regTaint(f, B) | th.regTaint(f, B+1) |
				th.regTaint(f, C) | th.regTaint(f, C+1)
			th.setRegTaint(f, A, t)
			th.setRegTaint(f, A+1, t)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := math.Float64frombits(th.regWide(f, B))
			c := math.Float64frombits(th.regWide(f, C))
			th.setRegWide(f, A, math.Float64bits(arithDouble(ar, b, c)))
			return jsNext
		}
		return t, c

	case dex.IntToFloat:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, math.Float32bits(float32(int32(th.reg(f, B)))))
			th.setRegTaint(f, A, th.regTaint(f, B))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, math.Float32bits(float32(int32(th.reg(f, B)))))
			return jsNext
		}
		return t, c
	case dex.FloatToInt:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(int32(math.Float32frombits(th.reg(f, B)))))
			th.setRegTaint(f, A, th.regTaint(f, B))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(int32(math.Float32frombits(th.reg(f, B)))))
			return jsNext
		}
		return t, c
	case dex.IntToDouble:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, math.Float64bits(float64(int32(th.reg(f, B)))))
			tt := th.regTaint(f, B)
			th.setRegTaint(f, A, tt)
			th.setRegTaint(f, A+1, tt)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, math.Float64bits(float64(int32(th.reg(f, B)))))
			return jsNext
		}
		return t, c
	case dex.DoubleToInt:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(int32(math.Float64frombits(th.regWide(f, B)))))
			th.setRegTaint(f, A, th.regTaint(f, B)|th.regTaint(f, B+1))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(int32(math.Float64frombits(th.regWide(f, B)))))
			return jsNext
		}
		return t, c
	case dex.IntToLong:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, uint64(int64(int32(th.reg(f, B)))))
			tt := th.regTaint(f, B)
			th.setRegTaint(f, A, tt)
			th.setRegTaint(f, A+1, tt)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setRegWide(f, A, uint64(int64(int32(th.reg(f, B)))))
			return jsNext
		}
		return t, c
	case dex.LongToInt:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(th.regWide(f, B)))
			th.setRegTaint(f, A, th.regTaint(f, B))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			th.setReg(f, A, uint32(th.regWide(f, B)))
			return jsNext
		}
		return t, c

	case dex.CmpFloat:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := math.Float32frombits(th.reg(f, B))
			c := math.Float32frombits(th.reg(f, C))
			th.setReg(f, A, uint32(cmpOrder(float64(b), float64(c))))
			th.setRegTaint(f, A, th.regTaint(f, B)|th.regTaint(f, C))
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := math.Float32frombits(th.reg(f, B))
			c := math.Float32frombits(th.reg(f, C))
			th.setReg(f, A, uint32(cmpOrder(float64(b), float64(c))))
			return jsNext
		}
		return t, c
	case dex.CmpDouble:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := math.Float64frombits(th.regWide(f, B))
			c := math.Float64frombits(th.regWide(f, C))
			th.setReg(f, A, uint32(cmpOrder(b, c)))
			t := th.regTaint(f, B) | th.regTaint(f, B+1) |
				th.regTaint(f, C) | th.regTaint(f, C+1)
			th.setRegTaint(f, A, t)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			b := math.Float64frombits(th.regWide(f, B))
			c := math.Float64frombits(th.regWide(f, C))
			th.setReg(f, A, uint32(cmpOrder(b, c)))
			return jsNext
		}
		return t, c
	case dex.CmpLong:
		t := func(vm *VM, th *Thread, f *Frame) jstepRes {
			v := cmpLongVal(int64(th.regWide(f, B)), int64(th.regWide(f, C)))
			th.setReg(f, A, uint32(v))
			t := th.regTaint(f, B) | th.regTaint(f, B+1) |
				th.regTaint(f, C) | th.regTaint(f, C+1)
			th.setRegTaint(f, A, t)
			return jsNext
		}
		c := func(vm *VM, th *Thread, f *Frame) jstepRes {
			v := cmpLongVal(int64(th.regWide(f, B)), int64(th.regWide(f, C)))
			th.setReg(f, A, uint32(v))
			return jsNext
		}
		return t, c

	case dex.Throw:
		s := func(vm *VM, th *Thread, f *Frame) jstepRes {
			o, ok := vm.objects[th.reg(f, A)]
			if !ok {
				f.thrown = vm.makeThrowable(th, npeClass, "throw on null")
				return jsThrow
			}
			f.thrown = o
			return jsThrow
		}
		return s, s

	default:
		e := errStep(vm.errorf("%s: unimplemented op %s at pc %d", m.FullName(), insn.Op, pc))
		return e, e
	}
}

// boundsCheck resolves the array register and index register of an array op,
// throwing the interpreter's exact exceptions on null or out-of-range.
func boundsCheck(vm *VM, th *Thread, f *Frame, m *dex.Method, arrReg, idxReg int) (*Object, int, jstepRes) {
	arr, err := vm.arrayAt(m, th.reg(f, arrReg))
	if err != nil {
		f.thrown = vm.makeThrowable(th, npeClass, err.Error())
		return nil, 0, jsThrow
	}
	idx := int(int32(th.reg(f, idxReg)))
	if idx < 0 || idx >= arr.Len {
		f.thrown = vm.makeThrowable(th, aioobClass,
			fmt.Sprintf("index %d length %d", idx, arr.Len))
		return nil, 0, jsThrow
	}
	return arr, idx, jsNext
}

func cmpLongVal(b, c int64) int32 {
	switch {
	case b < c:
		return -1
	case b > c:
		return 1
	}
	return 0
}

// buildInvoke compiles an invoke instruction. Static/direct targets are
// resolved at translate time (RegisterClass bumps the epoch, so late
// registration retranslates); virtual dispatch keeps a one-entry monomorphic
// cache on the receiver's class. Argument marshalling uses the VM's pooled
// scratch slices — the clean variant skips the shadow reads entirely, exactly
// like prepareInvoke's gate fast path.
func (vm *VM) buildInvoke(m *dex.Method, insn *dex.Insn) (jstep, jstep) {
	argRegs := insn.Args
	className, memberName := insn.ClassName, insn.MemberName

	var resolved *dex.Method
	if insn.Op != dex.InvokeVirtual {
		if insn.ResolvedMethod == nil {
			cls, ok := vm.classes[className]
			if !ok {
				s := throwStep(npeClass, fmt.Sprintf("unknown class %s", className))
				return s, s
			}
			mm, ok := cls.Method(memberName)
			if !ok {
				s := throwStep(npeClass, fmt.Sprintf("unknown method %s.%s", className, memberName))
				return s, s
			}
			insn.ResolvedMethod = mm
		}
		resolved = insn.ResolvedMethod
	}

	// findTarget resolves the callee at run time; cacheCls/cacheTarget are
	// per-closure-pair monomorphic cache cells (reset on retranslation).
	var cacheCls *dex.Class
	var cacheTarget *dex.Method
	findTarget := func(vm *VM, th *Thread, f *Frame) (*dex.Method, jstepRes) {
		if resolved != nil {
			return resolved, jsNext
		}
		recv, ok := vm.objects[th.reg(f, argRegs[0])]
		if !ok {
			f.thrown = vm.makeThrowable(th, npeClass,
				fmt.Sprintf("invoke-virtual %s.%s on null receiver", className, memberName))
			return nil, jsThrow
		}
		cls := recv.Class
		if cls == nil {
			cls = vm.classes[className]
		}
		if cls != nil && cls == cacheCls {
			return cacheTarget, jsNext
		}
		var target *dex.Method
		for walk := cls; walk != nil; walk = vm.classes[walk.Super] {
			if mm, ok := walk.Method(memberName); ok {
				target = mm
				break
			}
		}
		if target == nil {
			f.thrown = vm.makeThrowable(th, npeClass,
				fmt.Sprintf("unresolvable method %s.%s", className, memberName))
			return nil, jsThrow
		}
		if cls != nil {
			cacheCls, cacheTarget = cls, target
		}
		return target, jsNext
	}

	finish := func(vm *VM, th *Thread, f *Frame, target *dex.Method, args []uint32, taints []taint.Tag) jstepRes {
		ret, rt, threw, err := vm.Invoke(th, target, args, taints)
		vm.putScratch(args, taints)
		if err != nil {
			f.terr = err
			return jsErr
		}
		if threw != nil {
			f.thrown = threw
			return jsThrow
		}
		th.RetVal = ret
		// Re-evaluated at run time (not baked into the variant): the invoke
		// itself may have run the first source and flipped the latch, and its
		// return taint must then survive.
		if !vm.tainting() {
			rt = 0
		}
		th.RetTaint = rt
		return jsCall
	}

	t := func(vm *VM, th *Thread, f *Frame) jstepRes {
		target, res := findTarget(vm, th, f)
		if res != jsNext {
			return res
		}
		args, taints := vm.getScratch(len(argRegs))
		for i, r := range argRegs {
			args[i] = th.reg(f, r)
			taints[i] = th.regTaint(f, r)
		}
		return finish(vm, th, f, target, args, taints)
	}
	c := func(vm *VM, th *Thread, f *Frame) jstepRes {
		target, res := findTarget(vm, th, f)
		if res != jsNext {
			return res
		}
		// Clean frame: every taint slot is provably zero, skip the shadow
		// reads (scratch taints are handed out zeroed).
		args, taints := vm.getScratch(len(argRegs))
		for i, r := range argRegs {
			args[i] = th.reg(f, r)
		}
		return finish(vm, th, f, target, args, taints)
	}
	return t, c
}
