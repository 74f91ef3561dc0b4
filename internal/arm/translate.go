package arm

// This file implements the basic-block translation engine — the analog of
// QEMU's TCG translation cache, which is the execution substrate NDroid
// actually instruments (§V-C's hot-instruction cache is the degenerate
// one-instruction case). A straight-line run of guest code is decoded once
// into a Block: a slice of pre-resolved step closures with direct-threaded
// dispatch — no opcode switch, no condition re-check for always-condition
// instructions, and the taint-tracer handler pre-bound per instruction at
// translation time (see InsnBinder). Blocks end at control transfers, SVC,
// HLT, and hooked addresses; they chain to their taken/fall-through
// successors so hot loops never touch the cache map, and the dispatch loop
// runs chained blocks back-to-back until a real dispatch boundary.
//
// Correctness against self-modifying code and reloaded library regions comes
// from page-granular invalidation: every page holding a translation is marked
// in a bitmap, and the Memory write-notify callback invalidates that page's
// blocks (and decoded-instruction pages) on any store into it. Hook and
// Unhook likewise invalidate the affected page, since translation stops
// blocks at hooked addresses.

import (
	"fmt"
	"math"

	"repro/internal/fault"
)

// InsnBinder is an optional extension of Tracer: a tracer that can pre-bind
// its per-instruction work at translation time. The returned closure (nil for
// "nothing to do") replaces the TraceInsn dynamic dispatch in translated
// blocks, moving range checks and handler lookup out of the hot loop.
//
// Bindings are captured per block; a binder whose behavior for an already
// translated address changes (e.g. a re-scoped trace range) must be paired
// with CPU.InvalidateBlocks. Replacing CPU.Tracer wholesale is detected
// automatically and invalidates all blocks.
type InsnBinder interface {
	Tracer
	BindInsn(addr uint32, insn Insn) func(c *CPU)
}

// stepRes is the outcome of one translated step.
type stepRes uint8

const (
	stepNext   stepRes = iota // fall through to the next step
	stepBranch                // taken control transfer; PC/Thumb already set
	stepHalt                  // CPU halted; PC materialized
	stepErr                   // error recorded in c.blockErr; PC materialized
)

type stepFn func(c *CPU) stepRes

// Block is one translated straight-line run of guest code. Blocks translated
// under a tracer carry two step variants: the instrumented steps (Table V
// handler pre-bound per instruction) and bare (no taint dispatch at all).
// The taint-presence gate picks the variant per execution, so untainted
// phases run at vanilla speed without retranslation on gate flips.
type Block struct {
	key   uint32 // start PC | thumb bit
	steps []stepFn
	// bare is the uninstrumented variant of steps; nil when the block was
	// translated without a tracer (steps is already bare then).
	bare []stepFn
	// nexts[i] is the address of the instruction after step i, used to
	// materialize PC when a write into this block forces a mid-run bail-out.
	nexts []uint32
	endPC uint32 // fall-through address past the last instruction
	valid bool
	// startHooked records whether an address hook existed at the block's
	// start when it was translated. Hook/Unhook invalidate the page's
	// blocks, so for any valid block the flag is current — which lets the
	// dispatcher skip the hook-map lookup entirely on the hot path.
	startHooked bool

	// succTaken/succFall cache the successor blocks (chaining). They are
	// hints: each use re-checks key and validity.
	succTaken *Block
	succFall  *Block
}

// maxBlockSteps caps translation length; CF-Bench-style loops fit in far
// fewer, and shorter blocks bound the budget-check granularity in RunUntil.
const maxBlockSteps = 64

func pcKey(pc uint32, thumb bool) uint32 {
	if thumb {
		return pc | 1
	}
	return pc
}

// markCodeRange records that [lo, hi) holds cached translations (decoded
// instructions and/or translated blocks), allocating the 128 KiB page bitmap
// on first use so CPUs that never execute stay cheap, and widening each
// touched page's code extent.
func (c *CPU) markCodeRange(lo, hi uint32) {
	if hi <= lo {
		return
	}
	if c.codePages == nil {
		c.codePages = make([]uint32, 1<<15) // 2^20 pages / 32 bits
		c.codeExt = make(map[uint32][2]uint32)
	}
	for pn := lo >> 12; pn <= (hi-1)>>12; pn++ {
		c.codePages[pn>>5] |= 1 << (pn & 31)
		e, ok := c.codeExt[pn]
		if !ok {
			e = [2]uint32{^uint32(0), 0}
		}
		if lo < e[0] {
			e[0] = lo
		}
		if hi > e[1] {
			e[1] = hi
		}
		c.codeExt[pn] = e
	}
}

// onMemWrite is the Memory write-notify callback: a store into the code
// extent of a page that holds translations invalidates them. Pages without
// translations cost two loads and a mask, which is what keeps the notify
// surface affordable on the data path; stores to a marked page but outside
// its decoded/translated byte range (data placed next to code in the same
// image page) are also ignored — no cached state covers those bytes.
// Memory guarantees the notified range [addr, addr+n) stays on one page.
func (c *CPU) onMemWrite(addr, n uint32) {
	if c.codePages == nil {
		return
	}
	pn := addr >> 12
	w, bit := pn>>5, uint32(1)<<(pn&31)
	if c.codePages[w]&bit == 0 {
		return
	}
	if e, ok := c.codeExt[pn]; ok && (addr+n <= e[0] || addr >= e[1]) {
		return
	}
	c.codePages[w] &^= bit
	delete(c.codeExt, pn)
	c.invalidatePage(pn)
	if c.OnCodeWrite != nil {
		c.OnCodeWrite(addr)
	}
}

// invalidatePage drops every translation that touches page pn: both decoded
// instruction pages (ARM and Thumb views) and translated blocks.
func (c *CPU) invalidatePage(pn uint32) {
	delete(c.decodeCache, pn<<1)
	delete(c.decodeCache, pn<<1|1)
	if c.lastPageKey>>1 == pn {
		c.lastPageKey = ^uint32(0)
		c.lastPage = nil
	}
	c.invalidatePageBlocks(pn)
}

// invalidatePageBlocks drops only the translated blocks on page pn (Hook and
// Unhook use this: hooks change block boundaries but not decoded bytes). The
// epoch bump is unconditional — even when the page holds no translations yet —
// so that hook mutations are always visible to CodeEpoch observers (the
// fused JNI bridge treats any bump as "the translation world may have
// changed" and falls back to its conservative path).
func (c *CPU) invalidatePageBlocks(pn uint32) {
	c.CodeEpoch++
	if c.blocksByPage == nil {
		return
	}
	for _, b := range c.blocksByPage[pn] {
		if b.valid {
			b.valid = false
			delete(c.blockCache, b.key)
		}
	}
	delete(c.blocksByPage, pn)
}

// invalidateAllBlocks drops every translated block (decoded instruction
// pages survive; they carry no tracer or hook bindings).
func (c *CPU) invalidateAllBlocks() {
	c.CodeEpoch++
	for _, b := range c.blockCache {
		b.valid = false
	}
	c.blockCache = make(map[uint32]*Block)
	c.blocksByPage = make(map[uint32][]*Block)
}

// InvalidateBlocks drops every translated block. Callers that mutate
// translation inputs behind the engine's back (e.g. re-scoping a tracer's
// range after execution started) must call it; writes to code memory and
// Hook/Unhook invalidate automatically.
func (c *CPU) InvalidateBlocks() { c.invalidateAllBlocks() }

// RunUntilHint is RunUntil with a translated-block entry hint: the fused JNI
// bridge caches the entry block of its chain's native method and seeds the
// first dispatch with it, so the per-call cache-map lookup disappears. The
// executed entry block is returned for the caller to cache (nil when the run
// never dispatched a block — immediate stop, hook redirection, or the block
// engine being off). The hint is only an accelerator: a stale or mismatched
// hint is re-validated against key and validity exactly like a chained
// successor, so a wrong hint costs one lookup, never correctness.
func (c *CPU) RunUntilHint(stop uint32, maxInsns uint64, hint *Block) (*Block, error) {
	if maxInsns == 0 {
		maxInsns = 256 << 20
	}
	if !c.UseBlockCache {
		return nil, c.runInterp(stop, maxInsns)
	}
	// Blocks capture tracer bindings at translation time; a replaced tracer
	// invalidates them all (the epoch check QEMU does with tb_flush). The
	// check runs here and after every addr-hook invocation in stepBlock —
	// the only points where foreign code can swap the tracer — instead of
	// paying an interface comparison on every block dispatch.
	if c.Tracer != c.boundTracer {
		c.invalidateAllBlocks()
		c.boundTracer = c.Tracer
	}
	// Shadow state may have been written directly while the CPU was stopped
	// (tests and benchmarks seed RegTaint between runs); force the gate to
	// re-derive liveness on the first dispatch.
	c.gateBail = true
	// The budget is an absolute InsnCount limit, saturating on overflow.
	limit := c.InsnCount + maxInsns
	if limit < maxInsns {
		limit = math.MaxUint64
	}
	entryKey := pcKey(c.R[PC], c.Thumb)
	if hint != nil && (hint.key != entryKey || !hint.valid) {
		hint = nil
	}
	entry, b, first := hint, hint, true
	for !c.Halted && c.R[PC] != stop {
		if f := fault.Hit(SiteDispatch, c.R[PC]); f != nil {
			return entry, f
		}
		nb, err := c.stepBlock(b)
		if err != nil {
			return entry, err
		}
		if first {
			first = false
			if entry == nil {
				if eb := c.blockCache[entryKey]; eb != nil && eb.valid {
					entry = eb
				}
			}
		}
		// The chained fast path: run cached successors back-to-back until a
		// dispatch boundary needs the slow step — a missing successor, the
		// budget, a stop or halt, an armed injection site (every dispatch must
		// reach fault.Hit), or a control transfer onto a hooked block start.
		// It makes the slow step's per-block decisions in the same order, so
		// counters, budget faults and injections land exactly where they did.
		for nb != nil && c.InsnCount <= limit && !c.Halted && c.R[PC] != stop && !fault.Armed() {
			if c.checkHook {
				if nb.startHooked {
					break
				}
				c.checkHook = false
			}
			c.BlockHits++
			if nb, err = c.execBlock(nb); err != nil {
				return entry, err
			}
		}
		b = nb
		if c.InsnCount > limit {
			return entry, c.budgetFault(maxInsns)
		}
	}
	return entry, nil
}

// stepBlock is the dispatch loop's slow step. It runs the hook check at the
// current PC (same semantics as Step: hooks fire only when the address was
// reached through a control transfer), then executes one translated block.
// hint, when it matches the current PC, skips the cache-map lookup.
//
// The block is resolved before the hook check so that the common case — a
// cached block whose start carries no hook — clears checkHook with a single
// flag test instead of an addrHooks map lookup per taken branch. The flag is
// trustworthy because Hook/Unhook invalidate the affected page's blocks.
func (c *CPU) stepBlock(hint *Block) (*Block, error) {
	pc := c.R[PC]
	key := pcKey(pc, c.Thumb)
	b := hint
	if b == nil || b.key != key || !b.valid {
		if b = c.blockCache[key]; b != nil && !b.valid {
			b = nil
		}
	}
	if c.checkHook {
		c.checkHook = false
		if b == nil || b.startHooked {
			if hook, ok := c.addrHooks[pc]; ok {
				switch hook(c) {
				case ActionReturn:
					ret := c.R[LR]
					c.SetThumbPC(ret)
					c.EmitBranch(pc, ret&^1)
					return nil, nil
				}
				if c.Halted || c.R[PC] != pc {
					// The hook halted the CPU or redirected control itself.
					return nil, nil
				}
				if c.Tracer != c.boundTracer {
					// The hook swapped the tracer; stale bindings must go.
					c.invalidateAllBlocks()
					c.boundTracer = c.Tracer
				}
			}
			if b != nil && !b.valid {
				// The hook re-hooked or rewrote this page under us.
				b = nil
			}
		}
	}
	if b == nil {
		b = c.translate(pc)
		if b == nil {
			// Untranslatable first instruction: one interpreter step yields
			// the identical error (or executes the oddball insn).
			return nil, c.Step()
		}
		c.BlockMisses++
	} else {
		c.BlockHits++
	}
	return c.execBlock(b)
}

// execBlock runs a block's steps and resolves the successor hint. The taint
// gate picks the variant: the instrumented steps, or bare ones (no Table V
// dispatch) when no taint is live. InsnCount is settled in bulk at every exit
// — positionally exact (i+1 instructions ran, condition-failed ones included,
// matching the interpreter's count-then-check order), and nothing reads the
// counter mid-block: hooks and the budget only observe it at dispatch
// boundaries.
//
// A bare run has one extra bail condition: gateBail, raised edge-triggered by
// the liveness aggregate when the first taint tag is introduced while this
// block may be mid-run (a write observer, a syscall model). Bailing
// materializes PC after the already-executed instruction — which ran against
// a still taint-free machine, so skipping its Table V dispatch was exact —
// and the dispatcher resumes on the instrumented variant from the next
// instruction.
func (c *CPU) execBlock(b *Block) (*Block, error) {
	steps, bare := b.steps, false
	if c.UseTaintGate && b.bare != nil {
		live := c.taintLive()
		if live != c.gateWasLive {
			c.GateFlips++
			c.gateWasLive = live
		}
		if live {
			c.GateSlowBlocks++
		} else {
			c.GateFastBlocks++
			steps, bare = b.bare, true
		}
	}
	for i := 0; i < len(steps); i++ {
		switch steps[i](c) {
		case stepNext:
			if b.valid && !(bare && c.gateBail) {
				continue
			}
			// A store from inside this block invalidated it (self-modifying
			// code), or a bare run saw a taint edge. Materialize PC past the
			// executed instruction and bail to the dispatcher, which
			// retranslates from the fresh bytes or picks the other variant.
			c.InsnCount += uint64(i + 1)
			c.R[PC] = b.nexts[i]
			return nil, nil
		case stepBranch:
			c.InsnCount += uint64(i + 1)
			return c.chase(b, true), nil
		case stepHalt:
			c.InsnCount += uint64(i + 1)
			return nil, nil
		case stepErr:
			c.InsnCount += uint64(i + 1)
			err := c.blockErr
			c.blockErr = nil
			return nil, err
		}
	}
	c.InsnCount += uint64(len(steps))
	c.R[PC] = b.endPC
	if !b.valid {
		return nil, nil
	}
	return c.chase(b, false), nil
}

// chase resolves the successor block for the current PC, memoizing it on the
// predecessor so steady-state loops skip the cache map entirely.
func (c *CPU) chase(b *Block, taken bool) *Block {
	key := pcKey(c.R[PC], c.Thumb)
	slot := &b.succFall
	if taken {
		slot = &b.succTaken
	}
	if nb := *slot; nb != nil && nb.valid && nb.key == key {
		return nb
	}
	if nb := c.blockCache[key]; nb != nil && nb.valid {
		*slot = nb
		return nb
	}
	return nil
}

// translate decodes a straight-line run starting at pc (in the CPU's current
// Thumb state) into a new cached block. It returns nil when the very first
// instruction cannot be translated.
func (c *CPU) translate(startPC uint32) *Block {
	b := &Block{key: pcKey(startPC, c.Thumb), valid: true}
	_, b.startHooked = c.addrHooks[startPC]
	var binder InsnBinder
	if c.Tracer != nil {
		binder, _ = c.Tracer.(InsnBinder)
	}
	pc := startPC
	for len(b.steps) < maxBlockSteps {
		insn := c.decodeAt(pc)
		if insn.Op == OpInvalid {
			break
		}
		fn, bare, ends := c.buildStep(pc, insn, binder)
		if fn == nil {
			break
		}
		b.steps = append(b.steps, fn)
		if c.Tracer != nil {
			b.bare = append(b.bare, bare)
		}
		pc += insn.Size
		b.nexts = append(b.nexts, pc)
		if ends || insn.Rd == PC {
			// Control transfers, SVC, and HLT end blocks; so does any write
			// to R15 through a data op (the interpreter overwrites it with
			// the fall-through address, which endPC materialization mirrors).
			break
		}
		if _, hooked := c.addrHooks[pc]; hooked {
			// Stop before a hooked address so the instrumentation boundary
			// stays a block boundary.
			break
		}
	}
	if len(b.steps) == 0 {
		return nil
	}
	b.endPC = pc
	if c.blockCache == nil {
		c.blockCache = make(map[uint32]*Block)
		c.blocksByPage = make(map[uint32][]*Block)
	}
	c.blockCache[b.key] = b
	for pn := startPC >> 12; pn <= (pc-1)>>12; pn++ {
		c.blocksByPage[pn] = append(c.blocksByPage[pn], b)
	}
	c.markCodeRange(startPC, pc)
	return b
}

// buildStep assembles the full per-instruction closures: condition gate
// (pre-elided for AL), pre-bound tracer call, then the specialized executor.
// It returns both variants — fn with the tracer call, bare without — so each
// block is translated once and dispatched dual-mode by the taint gate. ends
// reports that the instruction must terminate the block. A nil fn means the
// op is not translatable.
func (c *CPU) buildStep(pc uint32, insn Insn, binder InsnBinder) (fn, bare stepFn, ends bool) {
	exec, ends, ok := c.buildExec(pc, insn)
	if !ok {
		return nil, nil, false
	}
	if refsPC(insn) {
		// The interpreter keeps R15 equal to the executing instruction's
		// address; materialize it for the rare instructions that read it.
		inner := exec
		at := pc
		exec = func(c *CPU) stepRes {
			c.R[PC] = at
			return inner(c)
		}
	}
	cond := insn.Cond
	bare = exec
	if cond != CondAL {
		inner := exec
		bare = func(c *CPU) stepRes {
			if !c.condHolds(cond) {
				return stepNext
			}
			return inner(c)
		}
	}
	var trace func(c *CPU)
	if c.Tracer != nil {
		if binder != nil {
			trace = binder.BindInsn(pc, insn)
		} else {
			tr, at, in := c.Tracer, pc, insn
			trace = func(c *CPU) { tr.TraceInsn(c, at, in) }
		}
	}
	switch {
	case trace == nil:
		// Nothing to instrument (no tracer, or the binder pre-resolved this
		// address to out-of-range): both variants are the bare executor, and
		// instruction counting is settled in bulk by the block loop.
		return bare, bare, ends
	case cond == CondAL:
		return func(c *CPU) stepRes {
			trace(c)
			return exec(c)
		}, bare, ends
	default:
		return func(c *CPU) stepRes {
			if !c.condHolds(cond) {
				return stepNext
			}
			trace(c)
			return exec(c)
		}, bare, ends
	}
}

// refsPC reports whether the instruction reads R15 as a source.
func refsPC(in Insn) bool {
	return in.Rn == PC || in.Rm == PC ||
		(in.Op == OpSTM && in.RegList&(1<<PC) != 0)
}

// buildExec returns the pre-resolved executor closure for one instruction.
// The closures are the unrolled bodies of (*CPU).exec with every decode-time
// decision (register numbers, immediate vs register operand, flag setting)
// already taken.
func (c *CPU) buildExec(pc uint32, insn Insn) (fn stepFn, ends, ok bool) {
	rd, rn, rm := int(insn.Rd), int(insn.Rn), int(insn.Rm)
	imm := uint32(insn.Imm)
	setf := insn.SetFlags
	next := pc + insn.Size

	// op2 resolves the data-processing second operand.
	op2 := func(c *CPU) uint32 { return imm }
	if !insn.HasImm {
		op2 = func(c *CPU) uint32 { return c.R[rm] }
	}

	switch insn.Op {
	case OpADD:
		if !setf {
			if insn.HasImm {
				return func(c *CPU) stepRes { c.R[rd] = c.R[rn] + imm; return stepNext }, false, true
			}
			return func(c *CPU) stepRes { c.R[rd] = c.R[rn] + c.R[rm]; return stepNext }, false, true
		}
		return func(c *CPU) stepRes { c.R[rd] = c.addWithCarry(c.R[rn], op2(c), 0, true); return stepNext }, false, true
	case OpSUB:
		if !setf {
			if insn.HasImm {
				return func(c *CPU) stepRes { c.R[rd] = c.R[rn] - imm; return stepNext }, false, true
			}
			return func(c *CPU) stepRes { c.R[rd] = c.R[rn] - c.R[rm]; return stepNext }, false, true
		}
		return func(c *CPU) stepRes { c.R[rd] = c.addWithCarry(c.R[rn], ^op2(c), 1, true); return stepNext }, false, true
	case OpRSB:
		return func(c *CPU) stepRes { c.R[rd] = c.addWithCarry(op2(c), ^c.R[rn], 1, setf); return stepNext }, false, true
	case OpADC:
		return func(c *CPU) stepRes {
			carry := uint32(0)
			if c.C {
				carry = 1
			}
			c.R[rd] = c.addWithCarry(c.R[rn], op2(c), carry, setf)
			return stepNext
		}, false, true
	case OpSBC:
		return func(c *CPU) stepRes {
			carry := uint32(0)
			if c.C {
				carry = 1
			}
			c.R[rd] = c.addWithCarry(c.R[rn], ^op2(c), carry, setf)
			return stepNext
		}, false, true
	case OpAND:
		return bitwiseStep(rd, rn, op2, setf, func(a, b uint32) uint32 { return a & b }), false, true
	case OpORR:
		return bitwiseStep(rd, rn, op2, setf, func(a, b uint32) uint32 { return a | b }), false, true
	case OpEOR:
		return bitwiseStep(rd, rn, op2, setf, func(a, b uint32) uint32 { return a ^ b }), false, true
	case OpBIC:
		return bitwiseStep(rd, rn, op2, setf, func(a, b uint32) uint32 { return a &^ b }), false, true
	case OpLSL:
		return func(c *CPU) stepRes {
			sh := op2(c) & 0xff
			v := c.R[rn]
			if sh >= 32 {
				v = 0
			} else {
				v <<= sh
			}
			c.R[rd] = v
			if setf {
				c.setNZ(v)
			}
			return stepNext
		}, false, true
	case OpLSR:
		return func(c *CPU) stepRes {
			sh := op2(c) & 0xff
			v := c.R[rn]
			if sh >= 32 {
				v = 0
			} else {
				v >>= sh
			}
			c.R[rd] = v
			if setf {
				c.setNZ(v)
			}
			return stepNext
		}, false, true
	case OpASR:
		return func(c *CPU) stepRes {
			sh := op2(c) & 0xff
			if sh >= 32 {
				sh = 31
			}
			v := uint32(int32(c.R[rn]) >> sh)
			c.R[rd] = v
			if setf {
				c.setNZ(v)
			}
			return stepNext
		}, false, true
	case OpROR:
		return func(c *CPU) stepRes {
			sh := op2(c) & 31
			v := c.R[rn]
			v = v>>sh | v<<(32-sh)
			c.R[rd] = v
			if setf {
				c.setNZ(v)
			}
			return stepNext
		}, false, true
	case OpMUL:
		return func(c *CPU) stepRes {
			c.R[rd] = c.R[rn] * c.R[rm]
			if setf {
				c.setNZ(c.R[rd])
			}
			return stepNext
		}, false, true
	case OpSDIV:
		return func(c *CPU) stepRes {
			d := int32(c.R[rm])
			if d == 0 {
				c.R[rd] = 0
			} else {
				c.R[rd] = uint32(int32(c.R[rn]) / d)
			}
			return stepNext
		}, false, true
	case OpUDIV:
		return func(c *CPU) stepRes {
			d := c.R[rm]
			if d == 0 {
				c.R[rd] = 0
			} else {
				c.R[rd] = c.R[rn] / d
			}
			return stepNext
		}, false, true
	case OpMOV:
		if !setf {
			if insn.HasImm {
				return func(c *CPU) stepRes { c.R[rd] = imm; return stepNext }, false, true
			}
			return func(c *CPU) stepRes { c.R[rd] = c.R[rm]; return stepNext }, false, true
		}
		return func(c *CPU) stepRes {
			c.R[rd] = op2(c)
			c.setNZ(c.R[rd])
			return stepNext
		}, false, true
	case OpMVN:
		return func(c *CPU) stepRes {
			c.R[rd] = ^op2(c)
			if setf {
				c.setNZ(c.R[rd])
			}
			return stepNext
		}, false, true
	case OpMOVW:
		lo := imm & 0xffff
		return func(c *CPU) stepRes { c.R[rd] = lo; return stepNext }, false, true
	case OpMOVT:
		hi := imm << 16
		return func(c *CPU) stepRes { c.R[rd] = c.R[rd]&0xffff | hi; return stepNext }, false, true
	case OpCMP:
		return func(c *CPU) stepRes { c.addWithCarry(c.R[rn], ^op2(c), 1, true); return stepNext }, false, true
	case OpCMN:
		return func(c *CPU) stepRes { c.addWithCarry(c.R[rn], op2(c), 0, true); return stepNext }, false, true
	case OpTST:
		return func(c *CPU) stepRes { c.setNZ(c.R[rn] & op2(c)); return stepNext }, false, true
	case OpTEQ:
		return func(c *CPU) stepRes { c.setNZ(c.R[rn] ^ op2(c)); return stepNext }, false, true
	case OpLDR, OpLDRB, OpLDRH:
		ea := eaFunc(rn, rm, imm, insn.RegOffset)
		at := pc
		switch insn.Op {
		case OpLDR:
			return func(c *CPU) stepRes {
				a := ea(c)
				if badAddr(a) {
					return c.memFaultStep(at, a)
				}
				c.R[rd] = c.Mem.Read32(a)
				return stepNext
			}, false, true
		case OpLDRB:
			return func(c *CPU) stepRes {
				a := ea(c)
				if badAddr(a) {
					return c.memFaultStep(at, a)
				}
				c.R[rd] = uint32(c.Mem.Read8(a))
				return stepNext
			}, false, true
		default:
			return func(c *CPU) stepRes {
				a := ea(c)
				if badAddr(a) {
					return c.memFaultStep(at, a)
				}
				c.R[rd] = uint32(c.Mem.Read16(a))
				return stepNext
			}, false, true
		}
	case OpSTR, OpSTRB, OpSTRH:
		ea := eaFunc(rn, rm, imm, insn.RegOffset)
		at := pc
		switch insn.Op {
		case OpSTR:
			return func(c *CPU) stepRes {
				a := ea(c)
				if badAddr(a) {
					return c.memFaultStep(at, a)
				}
				c.Mem.Write32(a, c.R[rd])
				return stepNext
			}, false, true
		case OpSTRB:
			return func(c *CPU) stepRes {
				a := ea(c)
				if badAddr(a) {
					return c.memFaultStep(at, a)
				}
				c.Mem.Write8(a, uint8(c.R[rd]))
				return stepNext
			}, false, true
		default:
			return func(c *CPU) stepRes {
				a := ea(c)
				if badAddr(a) {
					return c.memFaultStep(at, a)
				}
				c.Mem.Write16(a, uint16(c.R[rd]))
				return stepNext
			}, false, true
		}
	case OpSTM:
		list, wb := insn.RegList, insn.Writeback
		count := popCount(list)
		at := pc
		return func(c *CPU) stepRes {
			base := c.R[rn]
			if wb { // push semantics: descending
				base -= 4 * count
			}
			if badAddr(base) {
				// Fault before the writeback lands (deopt contract).
				return c.memFaultStep(at, base)
			}
			if wb {
				c.R[rn] = base
			}
			addr := base
			for r := 0; r < 16; r++ {
				if list&(1<<r) != 0 {
					c.Mem.Write32(addr, c.R[r])
					addr += 4
				}
			}
			return stepNext
		}, false, true
	case OpLDM:
		list, wb := insn.RegList, insn.Writeback
		at := pc
		if list&(1<<PC) == 0 {
			return func(c *CPU) stepRes {
				addr := c.R[rn]
				if badAddr(addr) {
					return c.memFaultStep(at, addr)
				}
				for r := 0; r < 16; r++ {
					if list&(1<<r) != 0 {
						c.R[r] = c.Mem.Read32(addr)
						addr += 4
					}
				}
				if wb {
					c.R[rn] = addr
				}
				return stepNext
			}, false, true
		}
		// POP {..., PC}: a dynamic control transfer ending the block.
		from := pc
		return func(c *CPU) stepRes {
			addr := c.R[rn]
			if badAddr(addr) {
				return c.memFaultStep(at, addr)
			}
			var to uint32
			for r := 0; r < 16; r++ {
				if list&(1<<r) == 0 {
					continue
				}
				v := c.Mem.Read32(addr)
				addr += 4
				if r == PC {
					to = v
				} else {
					c.R[r] = v
				}
			}
			if wb {
				c.R[rn] = addr
			}
			c.SetThumbPC(to)
			c.EmitBranch(from, to&^1)
			return stepBranch
		}, true, true
	case OpB:
		tgt := next + imm
		if c.Thumb {
			tgt |= 1
		}
		from := pc
		return func(c *CPU) stepRes {
			c.SetThumbPC(tgt)
			c.EmitBranch(from, tgt&^1)
			return stepBranch
		}, true, true
	case OpBL:
		tgt := next + imm
		lr := next
		if c.Thumb {
			tgt |= 1
			lr |= 1
		}
		from := pc
		return func(c *CPU) stepRes {
			c.R[LR] = lr
			c.SetThumbPC(tgt)
			c.EmitBranch(from, tgt&^1)
			return stepBranch
		}, true, true
	case OpBX:
		from := pc
		return func(c *CPU) stepRes {
			to := c.R[rm]
			c.SetThumbPC(to)
			c.EmitBranch(from, to&^1)
			return stepBranch
		}, true, true
	case OpBLX:
		lr := next
		if c.Thumb {
			lr |= 1
		}
		from := pc
		return func(c *CPU) stepRes {
			to := c.R[rm]
			c.R[LR] = lr
			c.SetThumbPC(to)
			c.EmitBranch(from, to&^1)
			return stepBranch
		}, true, true
	case OpSVC:
		num := insn.Imm
		at := pc
		return func(c *CPU) stepRes {
			c.R[PC] = at // syscall handlers observe the interpreter's PC
			if c.SVC == nil {
				c.blockErr = fmt.Errorf("arm: SVC #%d at 0x%08x with no handler", num, at)
				return stepErr
			}
			if err := c.SVC(c, uint32(num)); err != nil {
				c.blockErr = fmt.Errorf("arm: SVC #%d at 0x%08x: %w", num, at, err)
				return stepErr
			}
			return stepNext
		}, true, true
	case OpNOP:
		return func(c *CPU) stepRes { return stepNext }, false, true
	case OpHLT:
		at := pc
		return func(c *CPU) stepRes {
			c.R[PC] = at
			c.Halted = true
			return stepHalt
		}, true, true
	case OpFADDS, OpFSUBS, OpFMULS, OpFDIVS:
		op := insn.Op
		return func(c *CPU) stepRes {
			a := f32(c.R[rn])
			b := f32(c.R[rm])
			var r float32
			switch op {
			case OpFADDS:
				r = a + b
			case OpFSUBS:
				r = a - b
			case OpFMULS:
				r = a * b
			default:
				r = a / b
			}
			c.R[rd] = f32bits(r)
			return stepNext
		}, false, true
	case OpFADDD, OpFSUBD, OpFMULD, OpFDIVD:
		op := insn.Op
		rd8, rn8, rm8 := insn.Rd, insn.Rn, insn.Rm
		return func(c *CPU) stepRes {
			a := c.readF64(rn8)
			b := c.readF64(rm8)
			var r float64
			switch op {
			case OpFADDD:
				r = a + b
			case OpFSUBD:
				r = a - b
			case OpFMULD:
				r = a * b
			default:
				r = a / b
			}
			c.writeF64(rd8, r)
			return stepNext
		}, false, true
	case OpSITOF:
		return func(c *CPU) stepRes { c.R[rd] = f32bits(float32(int32(c.R[rm]))); return stepNext }, false, true
	case OpFTOSI:
		return func(c *CPU) stepRes { c.R[rd] = uint32(int32(f32(c.R[rm]))); return stepNext }, false, true
	case OpSITOD:
		rd8 := insn.Rd
		return func(c *CPU) stepRes { c.writeF64(rd8, float64(int32(c.R[rm]))); return stepNext }, false, true
	case OpDTOSI:
		rm8 := insn.Rm
		return func(c *CPU) stepRes { c.R[rd] = uint32(int32(c.readF64(rm8))); return stepNext }, false, true
	}
	return nil, false, false
}

// bitwiseStep builds the shared executor shape of AND/ORR/EOR/BIC.
func bitwiseStep(rd, rn int, op2 func(*CPU) uint32, setf bool, apply func(a, b uint32) uint32) stepFn {
	if !setf {
		return func(c *CPU) stepRes {
			c.R[rd] = apply(c.R[rn], op2(c))
			return stepNext
		}
	}
	return func(c *CPU) stepRes {
		v := apply(c.R[rn], op2(c))
		c.R[rd] = v
		c.setNZ(v)
		return stepNext
	}
}

func f32(bits uint32) float32  { return math.Float32frombits(bits) }
func f32bits(v float32) uint32 { return math.Float32bits(v) }

// eaFunc builds the effective-address resolver for loads and stores.
func eaFunc(rn, rm int, imm uint32, regOffset bool) func(*CPU) uint32 {
	if regOffset {
		return func(c *CPU) uint32 { return c.R[rn] + c.R[rm] }
	}
	if imm == 0 {
		return func(c *CPU) uint32 { return c.R[rn] }
	}
	return func(c *CPU) uint32 { return c.R[rn] + imm }
}
