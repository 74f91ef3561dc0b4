package core

import (
	"repro/internal/arm"
	"repro/internal/fault"
	"repro/internal/taint"
)

// Tracer is NDroid's instruction tracer (§V-C): for every ARM/Thumb
// instruction executed by third-party native code it applies the taint
// propagation logic of Table V *before* the instruction executes.
//
// Like NDroid, it caches the resolved handler per instruction address ("To
// speed up the identification of the instruction type and the search of the
// handler, NDroid caches hot instructions and the corresponding handlers").
type Tracer struct {
	Engine *TaintEngine

	// InRange restricts tracing to third-party native code; nil traces
	// everything (the DroidScope-style whole-system configuration).
	InRange func(addr uint32) bool

	// UseHandlerCache enables the per-address handler cache.
	UseHandlerCache bool
	cache           map[uint32]handlerFunc

	// Traced counts instructions that went through a taint handler;
	// Skipped counts instructions outside the traced range.
	Traced  uint64
	Skipped uint64

	// PerOp counts handler invocations per operation, for the Table V bench.
	PerOp [64]uint64
}

type handlerFunc func(tr *Tracer, c *arm.CPU, insn arm.Insn)

// NewTracer builds a tracer over the given engine.
func NewTracer(e *TaintEngine) *Tracer {
	return &Tracer{
		Engine:          e,
		UseHandlerCache: true,
		cache:           make(map[uint32]handlerFunc),
	}
}

var (
	_ arm.Tracer     = (*Tracer)(nil)
	_ arm.InsnBinder = (*Tracer)(nil)
)

// BindInsn implements arm.InsnBinder: when the CPU translates a basic block,
// the tracer resolves the range check and the Table V handler once per
// instruction, so translated code pays neither the per-step handler-map
// lookup nor the handlerFor switch. With the handler cache disabled (the
// ablation baseline) it falls back to dynamic TraceInsn dispatch.
func (tr *Tracer) BindInsn(addr uint32, insn arm.Insn) func(c *arm.CPU) {
	fn := tr.bindInsn(addr, insn)
	if fault.Armed() {
		// Injection armed at translation time: wrap the bound closure with the
		// probe. The production path (nothing armed when blocks are built)
		// binds the raw closure and pays nothing per instruction.
		at := addr
		return func(c *arm.CPU) {
			if f := fault.Hit(SiteTracerInsn, at); f != nil {
				panic(f)
			}
			fn(c)
		}
	}
	return fn
}

func (tr *Tracer) bindInsn(addr uint32, insn arm.Insn) func(c *arm.CPU) {
	if !tr.UseHandlerCache {
		in := insn
		return func(c *arm.CPU) { tr.TraceInsn(c, addr, in) }
	}
	if tr.InRange != nil && !tr.InRange(addr) {
		return func(*arm.CPU) { tr.Skipped++ }
	}
	op := insn.Op
	h := handlerFor(op)
	if h == nil {
		return func(*arm.CPU) {
			tr.Traced++
			tr.PerOp[op]++
		}
	}
	in := insn
	return func(c *arm.CPU) {
		tr.Traced++
		tr.PerOp[op]++
		h(tr, c, in)
	}
}

// TraceInsn implements arm.Tracer.
func (tr *Tracer) TraceInsn(c *arm.CPU, addr uint32, insn arm.Insn) {
	if f := fault.Hit(SiteTracerInsn, addr); f != nil {
		panic(f)
	}
	if tr.InRange != nil && !tr.InRange(addr) {
		tr.Skipped++
		return
	}
	tr.Traced++
	if int(insn.Op) < len(tr.PerOp) {
		tr.PerOp[insn.Op]++
	}
	if tr.UseHandlerCache {
		if h, ok := tr.cache[addr]; ok {
			if h != nil {
				h(tr, c, insn)
			}
			return
		}
		h := handlerFor(insn.Op)
		tr.cache[addr] = h
		if h != nil {
			h(tr, c, insn)
		}
		return
	}
	if h := handlerFor(insn.Op); h != nil {
		h(tr, c, insn)
	}
}

// ResetStats clears counters and the handler cache.
func (tr *Tracer) ResetStats() {
	tr.Traced, tr.Skipped = 0, 0
	tr.PerOp = [64]uint64{}
	tr.cache = make(map[uint32]handlerFunc)
}

// handlerFor maps an operation to its Table V taint rule.
func handlerFor(op arm.Op) handlerFunc {
	switch op {
	case arm.OpADD, arm.OpSUB, arm.OpRSB, arm.OpADC, arm.OpSBC,
		arm.OpAND, arm.OpORR, arm.OpEOR, arm.OpBIC,
		arm.OpLSL, arm.OpLSR, arm.OpASR, arm.OpROR:
		return handleBinary
	case arm.OpMUL, arm.OpSDIV, arm.OpUDIV,
		arm.OpFADDS, arm.OpFSUBS, arm.OpFMULS, arm.OpFDIVS:
		return handleThreeReg
	case arm.OpFADDD, arm.OpFSUBD, arm.OpFMULD, arm.OpFDIVD:
		return handleThreeRegWide
	case arm.OpMOV, arm.OpMVN:
		return handleMove
	case arm.OpMOVW:
		return handleMovw
	case arm.OpMOVT:
		return nil // merges an immediate into Rd; taint unchanged
	case arm.OpSITOF, arm.OpFTOSI:
		return handleUnary
	case arm.OpSITOD, arm.OpDTOSI:
		return handleCvtWide
	case arm.OpLDR, arm.OpLDRB, arm.OpLDRH:
		return handleLoad
	case arm.OpSTR, arm.OpSTRB, arm.OpSTRH:
		return handleStore
	case arm.OpLDM:
		return handleLDM
	case arm.OpSTM:
		return handleSTM
	default:
		// Compares, branches, SVC, NOP, HLT: no taint effect (Table V).
		return nil
	}
}

// handleBinary: binary-op Rd, Rn, Rm → t(Rd) = t(Rn) OR t(Rm);
// binary-op Rd, Rm, #imm → t(Rd) = t(Rn) (the immediate carries no taint).
// The two-operand accumulate form (Rd = Rd op Rm) falls out since Rn == Rd.
func handleBinary(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	t := c.RegTaint[insn.Rn]
	if !insn.HasImm {
		t |= c.RegTaint[insn.Rm]
	}
	c.RegTaint[insn.Rd] = t
}

func handleThreeReg(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	c.RegTaint[insn.Rd] = c.RegTaint[insn.Rn] | c.RegTaint[insn.Rm]
}

func handleThreeRegWide(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	t := c.RegTaint[insn.Rn] | c.RegTaint[insn.Rn+1] |
		c.RegTaint[insn.Rm] | c.RegTaint[insn.Rm+1]
	c.RegTaint[insn.Rd] = t
	c.RegTaint[insn.Rd+1] = t
}

// handleMove: mov Rd, #imm clears; mov Rd, Rm copies (Table V rows 5-6).
func handleMove(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	if insn.HasImm {
		c.RegTaint[insn.Rd] = taint.Clear
		return
	}
	c.RegTaint[insn.Rd] = c.RegTaint[insn.Rm]
}

func handleMovw(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	c.RegTaint[insn.Rd] = taint.Clear
}

func handleUnary(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	c.RegTaint[insn.Rd] = c.RegTaint[insn.Rm]
}

func handleCvtWide(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	switch insn.Op {
	case arm.OpSITOD:
		t := c.RegTaint[insn.Rm]
		c.RegTaint[insn.Rd] = t
		c.RegTaint[insn.Rd+1] = t
	case arm.OpDTOSI:
		c.RegTaint[insn.Rd] = c.RegTaint[insn.Rm] | c.RegTaint[insn.Rm+1]
	}
}

func memWidth(op arm.Op) uint32 {
	switch op {
	case arm.OpLDRB, arm.OpSTRB:
		return 1
	case arm.OpLDRH, arm.OpSTRH:
		return 2
	default:
		return 4
	}
}

// handleLoad: LDR Rd, [Rn, off] → t(Rd) = t(M[addr]) OR t(Rn): "if the
// tainted input is the address of an untainted value, the taint will be
// propagated to it" (Table V).
func handleLoad(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	addr := c.R[insn.Rn]
	t := c.RegTaint[insn.Rn]
	if insn.RegOffset {
		addr += c.R[insn.Rm]
		t |= c.RegTaint[insn.Rm]
	} else {
		addr += uint32(insn.Imm)
	}
	c.RegTaint[insn.Rd] = t | tr.Engine.Mem.GetRange(addr, memWidth(insn.Op))
}

// handleStore: STR Rd, [Rn, off] → t(M[addr]) = t(Rd).
func handleStore(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	addr := c.R[insn.Rn]
	if insn.RegOffset {
		addr += c.R[insn.Rm]
	} else {
		addr += uint32(insn.Imm)
	}
	tr.Engine.Mem.SetRange(addr, memWidth(insn.Op), c.RegTaint[insn.Rd])
}

// handleLDM: LDM/POP → each loaded register gets t(M[slot]) OR t(Rn).
func handleLDM(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	addr := c.R[insn.Rn]
	base := c.RegTaint[insn.Rn]
	for r := 0; r < 16; r++ {
		if insn.RegList&(1<<r) == 0 {
			continue
		}
		if r != arm.PC {
			c.RegTaint[r] = base | tr.Engine.Mem.Get32(addr)
		}
		addr += 4
	}
}

// handleSTM: STM/PUSH → each stored slot gets t(Ri). Mirrors the CPU's
// descending-store semantics for the writeback (push) form.
func handleSTM(tr *Tracer, c *arm.CPU, insn arm.Insn) {
	count := uint32(0)
	for r := 0; r < 16; r++ {
		if insn.RegList&(1<<r) != 0 {
			count++
		}
	}
	base := c.R[insn.Rn]
	if insn.Writeback {
		base -= 4 * count
	}
	addr := base
	for r := 0; r < 16; r++ {
		if insn.RegList&(1<<r) == 0 {
			continue
		}
		tr.Engine.Mem.Set32(addr, c.RegTaint[r])
		addr += 4
	}
}
