package dex

import (
	"fmt"

	"repro/internal/fault"
)

// Validate structurally checks every interpreted method body in the class,
// returning a MalformedDex fault for the first defect found. It is the
// load-time counterpart of the interpreter's runtime range checks: a batch
// analyzer can reject a truncated or bit-rotted class before spending any
// execution budget on it. Native and builtin methods carry no bytecode and
// are skipped.
func (c *Class) Validate() error {
	for _, m := range c.Methods {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Validate structurally checks one method body (see Class.Validate).
func (m *Method) Validate() error {
	if m.IsNative() || m.Builtin != nil {
		return nil
	}
	n := len(m.Insns)
	if n == 0 {
		return m.malformed("empty bytecode body")
	}
	switch m.Insns[n-1].Op {
	case ReturnVoid, Return, ReturnWide, Goto, Throw:
	default:
		// Any other final instruction falls through past the end of the
		// stream — the static form of the interpreter's "pc out of range".
		return m.malformed(fmt.Sprintf("body falls off the end (last op %s)", m.Insns[n-1].Op))
	}
	if ins := m.InsSize(); m.NumRegs < ins {
		return m.malformed(fmt.Sprintf("%d registers cannot hold %d argument words", m.NumRegs, ins))
	}
	for pc := range m.Insns {
		insn := &m.Insns[pc]
		switch insn.Op {
		case Goto, IfTest, IfTestZ:
			if insn.Tgt < 0 || insn.Tgt >= n {
				return m.malformed(fmt.Sprintf("branch at pc %d targets %d, outside [0,%d)", pc, insn.Tgt, n))
			}
		}
		if err := m.CheckOperands(pc); err != nil {
			return err
		}
	}
	for _, t := range m.Tries {
		if t.Start < 0 || t.End > n || t.Start >= t.End || t.Handler < 0 || t.Handler >= n {
			return m.malformed(fmt.Sprintf("try range [%d,%d) handler %d invalid for %d insns", t.Start, t.End, t.Handler, n))
		}
	}
	return m.validateCFG()
}

// Register operand shapes: none, one register, or a register pair.
const (
	regNone uint8 = iota
	regOne
	regPair
)

// regShapes gives the shapes of op's A, B and C operands, as the executor
// reads them. Invoke arguments are single registers in Args.
func regShapes(op Code) [3]uint8 {
	switch op {
	case Const, ConstString, MoveResult, MoveException, Return, NewInstance, Sget, Sput, IfTestZ, Throw:
		return [3]uint8{regOne}
	case ConstWide, MoveResultWide, ReturnWide, SgetWide, SputWide:
		return [3]uint8{regPair}
	case Move, NewArray, ArrayLength, Iget, Iput, IfTest, BinOpLit, IntToFloat, FloatToInt:
		return [3]uint8{regOne, regOne}
	case MoveWide:
		return [3]uint8{regPair, regPair}
	case IgetWide, IputWide, IntToDouble, IntToLong:
		return [3]uint8{regPair, regOne}
	case DoubleToInt, LongToInt:
		return [3]uint8{regOne, regPair}
	case Aget, Aput, BinOp, BinOpFloat, CmpFloat:
		return [3]uint8{regOne, regOne, regOne}
	case AgetWide, AputWide:
		return [3]uint8{regPair, regOne, regOne}
	case CmpDouble, CmpLong:
		return [3]uint8{regOne, regPair, regPair}
	case BinOpWide, BinOpDouble:
		return [3]uint8{regPair, regPair, regPair}
	}
	return [3]uint8{}
}

// CheckOperands checks the operands of the instruction at pc that the
// executor uses without a check: every register it names, and both halves
// of every pair, lie inside the method's frame; an invoke-virtual has a
// receiver; a new-array names its element kind. An operand past NumRegs
// would otherwise panic the host or, in a frame that crosses a page, touch
// the caller's registers. Validate runs it on every instruction, and the
// executor's decode runs it too, so an unvalidated method faults the same
// way when it reaches the instruction.
func (m *Method) CheckOperands(pc int) error {
	insn := &m.Insns[pc]
	switch {
	case insn.Op == InvokeVirtual && len(insn.Args) == 0:
		return m.malformed(fmt.Sprintf("invoke-virtual at pc %d has no receiver", pc))
	case insn.Op == NewArray && insn.Str == "":
		return m.malformed(fmt.Sprintf("new-array at pc %d names no element kind", pc))
	}
	check := func(r int, shape uint8) error {
		width := int(shape) // regOne is 1 register, regPair 2
		if shape == regNone || (r >= 0 && r+width <= m.NumRegs) {
			return nil
		}
		what := "register"
		if shape == regPair {
			what = "register pair"
		}
		return m.malformed(fmt.Sprintf("%s at pc %d names %s v%d outside a %d-register frame", insn.Op, pc, what, r, m.NumRegs))
	}
	shapes := regShapes(insn.Op)
	for i, r := range [3]int{insn.A, insn.B, insn.C} {
		if err := check(r, shapes[i]); err != nil {
			return err
		}
	}
	for _, r := range insn.Args {
		if err := check(r, regOne); err != nil {
			return err
		}
	}
	return nil
}

// validateCFG runs the control-flow-derived checks: every instruction must
// be reachable from entry, result/exception movers must sit at the only
// positions the interpreter defines values for them, and no branch may land
// on one (the single-slot IR analog of a branch target landing
// mid-instruction, where the mover would read a stale pseudo-register).
func (m *Method) validateCFG() error {
	n := len(m.Insns)

	isHandler := make([]bool, n)
	for _, t := range m.Tries {
		isHandler[t.Handler] = true
	}
	isInvoke := func(op Code) bool {
		return op == InvokeVirtual || op == InvokeDirect || op == InvokeStatic
	}
	for pc := range m.Insns {
		insn := &m.Insns[pc]
		switch insn.Op {
		case MoveResult, MoveResultWide:
			if pc == 0 || !isInvoke(m.Insns[pc-1].Op) {
				return m.malformed(fmt.Sprintf("%s at pc %d does not follow an invoke", insn.Op, pc))
			}
			if isHandler[pc] {
				return m.malformed(fmt.Sprintf("exception handler lands on %s at pc %d", insn.Op, pc))
			}
		case MoveException:
			if !isHandler[pc] {
				return m.malformed(fmt.Sprintf("move-exception at pc %d is not a try handler entry", pc))
			}
		case Goto, IfTest, IfTestZ:
			switch m.Insns[insn.Tgt].Op {
			case MoveResult, MoveResultWide, MoveException:
				return m.malformed(fmt.Sprintf(
					"branch at pc %d lands mid-sequence on %s at pc %d", pc, m.Insns[insn.Tgt].Op, insn.Tgt))
			}
		}
	}

	// Reachability sweep from entry; try handlers are reachable from any
	// instruction inside their range (the conservative may-throw edge).
	reached := make([]bool, n)
	work := []int{0}
	reached[0] = true
	visit := func(pc int) {
		if pc >= 0 && pc < n && !reached[pc] {
			reached[pc] = true
			work = append(work, pc)
		}
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		for _, t := range m.Tries {
			if pc >= t.Start && pc < t.End {
				visit(t.Handler)
			}
		}
		switch insn := &m.Insns[pc]; insn.Op {
		case Goto:
			visit(insn.Tgt)
		case IfTest, IfTestZ:
			visit(insn.Tgt)
			visit(pc + 1)
		case ReturnVoid, Return, ReturnWide, Throw:
		default:
			visit(pc + 1)
		}
	}
	for pc, r := range reached {
		if !r {
			return m.malformed(fmt.Sprintf("unreachable code at pc %d (%s)", pc, m.Insns[pc].Op))
		}
	}
	return nil
}

func (m *Method) malformed(detail string) error {
	return &fault.Fault{
		Kind: fault.MalformedDex, Layer: "dex",
		Method: m.FullName(), Detail: detail,
	}
}
