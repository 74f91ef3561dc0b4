package arm

// This file implements the basic-block translation engine — the analog of
// QEMU's TCG translation cache, which is the execution substrate NDroid
// actually instruments (§V-C's hot-instruction cache is the degenerate
// one-instruction case). A straight-line run of guest code is decoded once
// into a Block: one array of micro-ops (uop) of specialised kinds (ADD-imm,
// CMP-imm, B, ...) with every decode-time decision already taken and the
// taint-tracer handler pre-bound per instruction at translation time (see
// InsnBinder). One switch executor, execBlock, runs it. Blocks end at
// control transfers, SVC, HLT, and hooked addresses; they chain to their
// taken/fall-through successors so hot loops never touch the cache map, and
// the dispatch loop runs chained blocks back-to-back until a real dispatch
// boundary. A block that branches back to its own start — the bottom-tested
// loop compilers rotate loops into — iterates in place inside the executor,
// as a TCG block that jumps to itself never returns to QEMU's dispatcher.
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
	"math/bits"

	"repro/internal/fault"
)

// InsnBinder is an optional extension of Tracer: a tracer that can pre-bind
// its per-instruction work at translation time. The returned closure (nil for
// "nothing to do") replaces the TraceInsn dynamic dispatch in translated
// blocks, moving range checks and handler lookup out of the hot loop.
//
// Bindings are captured per block, so a binder's behavior for an already
// translated address must not change while it is installed. Replacing
// CPU.Tracer wholesale is detected automatically and invalidates all blocks;
// that is the way to change what a binding does.
type InsnBinder interface {
	Tracer
	BindInsn(addr uint32, insn Insn) func(c *CPU)
}

// Block is one translated straight-line run of guest code: one micro-op
// array. Ops translated under a tracer carry their pre-bound Table V handler;
// the taint-presence gate decides per execution whether to call them, so
// untainted phases run at vanilla speed without retranslation on gate flips.
type Block struct {
	key   uint32 // start PC | thumb bit
	ops   []uop
	endPC uint32 // fall-through address past the last instruction
	valid bool
	// traced marks a block translated under a tracer. Its ops' tracers run on
	// every execution, unless UseTaintGate lets the gate pick the bare
	// variant (no tracer calls) while no taint is live.
	traced bool
	// loops marks a single-block loop: the last op is a direct branch back to
	// the block's own start and no earlier op can write memory or leave the
	// block, so the executor may run it again in place (see execBlock).
	loops bool
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

// maxBlockOps caps translation length; CF-Bench-style loops fit in far
// fewer, and shorter blocks bound the budget-check granularity in RunUntil.
const maxBlockOps = 64

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
// so that hook mutations are always visible to CodeEpoch observers.
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

// RunUntil executes until PC reaches stop, the CPU halts, an error occurs,
// or maxInsns instructions have been executed (0 means a generous default of
// 256M). It is the primitive that the JNI call bridge uses to run a native
// method to completion: the bridge sets LR to a return pad and runs until the
// pad is reached.
func (c *CPU) RunUntil(stop uint32, maxInsns uint64) error {
	if maxInsns == 0 {
		maxInsns = 256 << 20
	}
	if !c.UseBlockCache {
		return c.runInterp(stop, maxInsns)
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
	var b *Block
	for !c.Halted && c.R[PC] != stop {
		if f := fault.Hit(SiteDispatch, c.R[PC]); f != nil {
			return f
		}
		nb, err := c.stepBlock(b, limit)
		if err != nil {
			return err
		}
		// The chained fast path: run cached successors back-to-back until a
		// dispatch boundary needs the slow step — a missing successor, the
		// budget, a stop or halt, an armed injection site (every dispatch must
		// reach fault.Hit), or a control transfer onto a hooked block start.
		// It makes the slow step's per-block decisions in the same order, so
		// counters, budget faults and injections land exactly where they did.
		// A single-block loop makes the same decisions inside execBlock.
		for nb != nil && c.InsnCount <= limit && !c.Halted && c.R[PC] != stop && !fault.Armed() {
			if c.checkHook {
				if nb.startHooked {
					break
				}
				c.checkHook = false
			}
			c.BlockHits++
			if nb, err = c.execBlock(nb, limit); err != nil {
				return err
			}
		}
		b = nb
		if c.InsnCount > limit {
			return c.budgetFault(maxInsns)
		}
	}
	return nil
}

// stepBlock is the dispatch loop's slow step. It runs the hook check at the
// current PC (same semantics as Step: hooks fire only when the address was
// reached through a control transfer), then executes one translated block.
// hint, when it matches the current PC, skips the cache-map lookup; limit is
// the run's absolute budget, passed through to execBlock.
//
// The block is resolved before the hook check so that the common case — a
// cached block whose start carries no hook — clears checkHook with a single
// flag test instead of an addrHooks map lookup per taken branch. The flag is
// trustworthy because Hook/Unhook invalidate the affected page's blocks.
func (c *CPU) stepBlock(hint *Block, limit uint64) (*Block, error) {
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
	return c.execBlock(b, limit)
}

// uop is one pre-decoded instruction of a translated block. The executor
// switches on kind; register numbers, the operand form, the S suffix and
// branch targets are resolved at translation time.
type uop struct {
	kind       uopKind
	cond       Cond
	flags      uopFlags
	rd, rn, rm uint8
	// imm is the immediate operand (MOVW pre-masked, MOVT pre-shifted), the
	// signed memory offset, the branch target with its Thumb bit, the SVC
	// number, or the LDM/STM register list.
	imm  uint32
	at   uint32 // the instruction's address
	next uint32 // the address of the instruction after it
	// trace is the pre-bound tracer func (nil: nothing to instrument); the
	// executor calls it only on the instrumented variant.
	trace func(c *CPU)
}

type uopKind uint8

const (
	uInvalid uopKind = iota
	uNOP
	uADDri
	uADDrr
	uSUBri
	uSUBrr
	uADDS // flag-setting ADD, either operand form
	uSUBS
	uRSB
	uADC
	uSBC
	uAND
	uORR
	uEOR
	uBIC
	uLSL
	uLSR
	uASR
	uROR
	uMUL
	uSDIV
	uUDIV
	uMOVi
	uMOVr
	uMOVS
	uMVN
	uMOVW
	uMOVT
	uCMPri
	uCMP
	uCMN
	uTST
	uTEQ
	uLDR
	uLDRB
	uLDRH
	uSTR
	uSTRB
	uSTRH
	uSTM
	uLDM
	uPOP // LDM with PC in the list: a dynamic control transfer
	uB
	uBL
	uBX
	uBLX
	uSVC
	uHLT
	uFADDS
	uFSUBS
	uFMULS
	uFDIVS
	uFADDD
	uFSUBD
	uFMULD
	uFDIVD
	uSITOF
	uFTOSI
	uSITOD
	uDTOSI
)

// endsBlock reports whether an op of kind k must terminate its block:
// control transfers, SVC and HLT.
func (k uopKind) endsBlock() bool {
	switch k {
	case uPOP, uB, uBL, uBX, uBLX, uSVC, uHLT:
		return true
	}
	return false
}

type uopFlags uint8

const (
	uopImm    uopFlags = 1 << iota // the second operand is imm, not R[rm]
	uopSet                         // S suffix: the op sets N and Z (and C, V for arithmetic)
	uopRegOff                      // [Rn, Rm] addressing
	uopWB                          // LDM/STM writeback
	uopPC                          // reads R15: materialize it at the op's address first
	uopCheck                       // writes memory or runs foreign code: re-check the block afterwards
	uopCond                        // the condition is not AL
	uopTraced                      // trace is set
)

// op2 resolves the data-processing second operand.
func (u *uop) op2(c *CPU) uint32 {
	if u.flags&uopImm != 0 {
		return u.imm
	}
	return c.R[u.rm&15]
}

// ea resolves a load or store's effective address.
func (u *uop) ea(c *CPU) uint32 {
	if u.flags&uopRegOff != 0 {
		return c.R[u.rn&15] + c.R[u.rm&15]
	}
	return c.R[u.rn&15] + u.imm
}

// link is the return address BL and BLX write to LR.
func (u *uop) link(c *CPU) uint32 {
	if c.Thumb {
		return u.next | 1
	}
	return u.next
}

// logic writes a bitwise, shift or multiply result and, with the S suffix,
// sets N and Z from it.
func (c *CPU) logic(u *uop, v uint32) {
	c.R[u.rd&15] = v
	if u.flags&uopSet != 0 {
		c.setNZ(v)
	}
}

// execBlock runs a block's micro-ops and resolves the successor hint. The
// taint gate picks the variant: instrumented (each op's tracer is called) or
// bare (no Table V dispatch) when no taint is live. InsnCount is settled in
// bulk at every exit — positionally exact (i+1 instructions ran, condition-
// failed ones included, matching the interpreter's count-then-check order),
// and nothing reads the counter mid-block: hooks and the budget only observe
// it at dispatch boundaries.
//
// Only ops that may write memory or run foreign code (stores, SVC, and any op
// whose tracer runs) re-check the block afterwards. A store into this block
// invalidates it (self-modifying code); on a bare run, gateBail — raised
// edge-triggered by the liveness aggregate when the first taint tag is
// introduced (a write observer, a syscall model) — means the rest must run
// instrumented. Either way the executor materializes PC past the executed
// instruction (which ran against a still taint-free machine, so skipping its
// Table V dispatch was exact) and bails to the dispatcher, which
// retranslates or picks the other variant. Register-only ops and loads can
// do neither, so they skip the check.
//
// A block with loops set iterates in place: when its back-edge is taken, the
// executor runs it again instead of returning to the dispatcher, provided the
// dispatcher would have chained straight back into it — the head is
// unhooked, the branch is outside the BranchFn watch (no event to deliver),
// the bare variant runs with liveness cached clean (or the block has no
// tracer), no injection site is armed, and the budget admits another pass.
// The head is never the run's stop: both dispatch paths test stop before
// they enter a block. Each pass counts as one block hit (and one fast-gate
// block when gated), settled in bulk with InsnCount, so counters, budget
// faults and load faults land exactly where chained dispatch put them.
func (c *CPU) execBlock(b *Block, limit uint64) (*Block, error) {
	trace, gated := b.traced, false
	if trace && c.UseTaintGate {
		live := c.taintLive()
		if live != c.gateWasLive {
			c.GateFlips++
			c.gateWasLive = live
		}
		if live {
			c.GateSlowBlocks++
		} else {
			c.GateFastBlocks++
			trace, gated = false, true
		}
	}
	// traceMask selects the ops whose tracer runs, checkMask the ops after
	// which the block must be re-checked.
	traceMask, checkMask := uopFlags(0), uopCheck
	if trace {
		traceMask, checkMask = uopTraced, uopCheck|uopTraced
	}
	ops := b.ops
	// spins counts the extra in-place passes; maxSpins is how many the budget
	// admits (a pass may start while InsnCount <= limit).
	var spins, maxSpins uint64
	if b.loops && !trace && c.InsnCount <= limit && c.spinsInPlace(b) {
		maxSpins = (limit - c.InsnCount) / uint64(len(ops))
	}
	for i := 0; i < len(ops); i++ {
		u := &ops[i]
		f := u.flags
		if f&(uopCond|uopPC) != 0 {
			if f&uopCond != 0 && !c.passes(u.cond) {
				continue
			}
			if f&uopPC != 0 {
				// The interpreter keeps R15 equal to the executing
				// instruction's address; materialize it for the rare
				// instructions that read it.
				c.R[PC] = u.at
			}
		}
		if f&traceMask != 0 {
			u.trace(c)
		}
		switch u.kind {
		case uNOP:
		case uADDri:
			c.R[u.rd&15] = c.R[u.rn&15] + u.imm
		case uADDrr:
			c.R[u.rd&15] = c.R[u.rn&15] + c.R[u.rm&15]
		case uSUBri:
			c.R[u.rd&15] = c.R[u.rn&15] - u.imm
		case uSUBrr:
			c.R[u.rd&15] = c.R[u.rn&15] - c.R[u.rm&15]
		case uADDS:
			c.R[u.rd&15] = c.addWithCarry(c.R[u.rn&15], u.op2(c), 0, true)
		case uSUBS:
			c.R[u.rd&15] = c.addWithCarry(c.R[u.rn&15], ^u.op2(c), 1, true)
		case uRSB:
			c.R[u.rd&15] = c.addWithCarry(u.op2(c), ^c.R[u.rn&15], 1, u.flags&uopSet != 0)
		case uADC, uSBC:
			carry, v := uint32(0), u.op2(c)
			if c.C {
				carry = 1
			}
			if u.kind == uSBC {
				v = ^v
			}
			c.R[u.rd&15] = c.addWithCarry(c.R[u.rn&15], v, carry, u.flags&uopSet != 0)
		case uAND:
			c.logic(u, c.R[u.rn&15]&u.op2(c))
		case uORR:
			c.logic(u, c.R[u.rn&15]|u.op2(c))
		case uEOR:
			c.logic(u, c.R[u.rn&15]^u.op2(c))
		case uBIC:
			c.logic(u, c.R[u.rn&15]&^u.op2(c))
		case uLSL:
			v := uint32(0)
			if sh := u.op2(c) & 0xff; sh < 32 {
				v = c.R[u.rn&15] << sh
			}
			c.logic(u, v)
		case uLSR:
			v := uint32(0)
			if sh := u.op2(c) & 0xff; sh < 32 {
				v = c.R[u.rn&15] >> sh
			}
			c.logic(u, v)
		case uASR:
			sh := u.op2(c) & 0xff
			if sh >= 32 {
				sh = 31
			}
			c.logic(u, uint32(int32(c.R[u.rn&15])>>sh))
		case uROR:
			sh, v := u.op2(c)&31, c.R[u.rn&15]
			c.logic(u, v>>sh|v<<(32-sh))
		case uMUL:
			c.logic(u, c.R[u.rn&15]*c.R[u.rm&15])
		case uSDIV:
			v := uint32(0)
			if d := int32(c.R[u.rm&15]); d != 0 {
				v = uint32(int32(c.R[u.rn&15]) / d)
			}
			c.R[u.rd&15] = v
		case uUDIV:
			v := uint32(0)
			if d := c.R[u.rm&15]; d != 0 {
				v = c.R[u.rn&15] / d
			}
			c.R[u.rd&15] = v
		case uMOVi:
			c.R[u.rd&15] = u.imm
		case uMOVr:
			c.R[u.rd&15] = c.R[u.rm&15]
		case uMOVS:
			v := u.op2(c)
			c.R[u.rd&15] = v
			c.setNZ(v)
		case uMVN:
			c.logic(u, ^u.op2(c))
		case uMOVW:
			c.R[u.rd&15] = u.imm
		case uMOVT:
			c.R[u.rd&15] = c.R[u.rd&15]&0xffff | u.imm
		case uCMPri:
			c.addWithCarry(c.R[u.rn&15], ^u.imm, 1, true)
		case uCMP:
			c.addWithCarry(c.R[u.rn&15], ^u.op2(c), 1, true)
		case uCMN:
			c.addWithCarry(c.R[u.rn&15], u.op2(c), 0, true)
		case uTST:
			c.setNZ(c.R[u.rn&15] & u.op2(c))
		case uTEQ:
			c.setNZ(c.R[u.rn&15] ^ u.op2(c))
		case uLDR:
			a := u.ea(c)
			if badAddr(a) {
				return nil, c.faultAt(b, spins, i, gated, a)
			}
			c.R[u.rd&15] = c.Mem.Read32(a)
		case uLDRB:
			a := u.ea(c)
			if badAddr(a) {
				return nil, c.faultAt(b, spins, i, gated, a)
			}
			c.R[u.rd&15] = uint32(c.Mem.Read8(a))
		case uLDRH:
			a := u.ea(c)
			if badAddr(a) {
				return nil, c.faultAt(b, spins, i, gated, a)
			}
			c.R[u.rd&15] = uint32(c.Mem.Read16(a))
		case uSTR:
			a := u.ea(c)
			if badAddr(a) {
				return nil, c.faultAt(b, spins, i, gated, a)
			}
			c.Mem.Write32(a, c.R[u.rd&15])
		case uSTRB:
			a := u.ea(c)
			if badAddr(a) {
				return nil, c.faultAt(b, spins, i, gated, a)
			}
			c.Mem.Write8(a, uint8(c.R[u.rd&15]))
		case uSTRH:
			a := u.ea(c)
			if badAddr(a) {
				return nil, c.faultAt(b, spins, i, gated, a)
			}
			c.Mem.Write16(a, uint16(c.R[u.rd&15]))
		case uSTM:
			base := c.R[u.rn&15]
			if u.flags&uopWB != 0 { // push semantics: descending
				base -= 4 * uint32(bits.OnesCount32(u.imm))
			}
			if badAddr(base) {
				// Fault before the writeback lands (deopt contract).
				return nil, c.faultAt(b, spins, i, gated, base)
			}
			if u.flags&uopWB != 0 {
				c.R[u.rn&15] = base
			}
			for r, addr := 0, base; r < 16; r++ {
				if u.imm&(1<<r) != 0 {
					c.Mem.Write32(addr, c.R[r])
					addr += 4
				}
			}
		case uLDM, uPOP:
			addr := c.R[u.rn&15]
			if badAddr(addr) {
				return nil, c.faultAt(b, spins, i, gated, addr)
			}
			var to uint32
			for r := 0; r < 16; r++ {
				if u.imm&(1<<r) == 0 {
					continue
				}
				if r == PC {
					to = c.Mem.Read32(addr)
				} else {
					c.R[r] = c.Mem.Read32(addr)
				}
				addr += 4
			}
			if u.flags&uopWB != 0 {
				c.R[u.rn&15] = addr
			}
			if u.kind == uPOP {
				return c.branch(b, spins, i, gated, u, to), nil
			}
		case uB:
			if spins < maxSpins && !fault.Armed() {
				// The back-edge of a single-block loop: run the next pass here.
				spins++
				i = -1
				continue
			}
			return c.branch(b, spins, i, gated, u, u.imm), nil
		case uBL:
			c.R[LR] = u.link(c)
			return c.branch(b, spins, i, gated, u, u.imm), nil
		case uBX:
			return c.branch(b, spins, i, gated, u, c.R[u.rm&15]), nil
		case uBLX:
			to := c.R[u.rm&15]
			c.R[LR] = u.link(c)
			return c.branch(b, spins, i, gated, u, to), nil
		case uSVC:
			if c.SVC == nil {
				c.retire(b, spins, i+1, gated)
				return nil, fmt.Errorf("arm: SVC #%d at 0x%08x with no handler", u.imm, u.at)
			}
			if err := c.SVC(c, u.imm); err != nil {
				c.retire(b, spins, i+1, gated)
				return nil, fmt.Errorf("arm: SVC #%d at 0x%08x: %w", u.imm, u.at, err)
			}
		case uHLT:
			c.retire(b, spins, i+1, gated)
			c.Halted = true
			return nil, nil
		case uFADDS:
			c.R[u.rd&15] = f32bits(f32(c.R[u.rn&15]) + f32(c.R[u.rm&15]))
		case uFSUBS:
			c.R[u.rd&15] = f32bits(f32(c.R[u.rn&15]) - f32(c.R[u.rm&15]))
		case uFMULS:
			c.R[u.rd&15] = f32bits(f32(c.R[u.rn&15]) * f32(c.R[u.rm&15]))
		case uFDIVS:
			c.R[u.rd&15] = f32bits(f32(c.R[u.rn&15]) / f32(c.R[u.rm&15]))
		case uFADDD:
			c.writeF64(int8(u.rd), c.readF64(int8(u.rn))+c.readF64(int8(u.rm)))
		case uFSUBD:
			c.writeF64(int8(u.rd), c.readF64(int8(u.rn))-c.readF64(int8(u.rm)))
		case uFMULD:
			c.writeF64(int8(u.rd), c.readF64(int8(u.rn))*c.readF64(int8(u.rm)))
		case uFDIVD:
			c.writeF64(int8(u.rd), c.readF64(int8(u.rn))/c.readF64(int8(u.rm)))
		case uSITOF:
			c.R[u.rd&15] = f32bits(float32(int32(c.R[u.rm&15])))
		case uFTOSI:
			c.R[u.rd&15] = uint32(int32(f32(c.R[u.rm&15])))
		case uSITOD:
			c.writeF64(int8(u.rd), float64(int32(c.R[u.rm&15])))
		case uDTOSI:
			c.R[u.rd&15] = uint32(int32(c.readF64(int8(u.rm))))
		}
		if f&checkMask != 0 && (!b.valid || gated && c.gateBail) {
			c.retire(b, spins, i+1, gated)
			c.R[PC] = u.next
			return nil, nil
		}
	}
	c.retire(b, spins, len(ops), gated)
	c.R[PC] = b.endPC
	if !b.valid {
		return nil, nil
	}
	return c.chase(b, false), nil
}

// spinsInPlace reports whether the dispatcher would chain a single-block
// loop's taken back-edge straight into the next pass with nothing to do in
// between: no hook check at the head, no branch event to deliver, no armed
// injection site to probe.
func (c *CPU) spinsInPlace(b *Block) bool {
	head := b.key &^ 1
	return !b.startHooked && !fault.Armed() &&
		(c.BranchFn == nil || head < c.branchWatchLo || head > c.branchWatchHi)
}

// retire settles a block run's counters: spins full in-place passes of b,
// each a block hit (and a fast-gate block when gated), plus n instructions
// of the current pass.
func (c *CPU) retire(b *Block, spins uint64, n int, gated bool) {
	c.InsnCount += spins*uint64(len(b.ops)) + uint64(n)
	c.BlockHits += spins
	if gated {
		c.GateFastBlocks += spins
	}
}

// branch ends a block run at op i, u, with a taken control transfer to `to`
// (an interworking address) and returns the chained successor.
func (c *CPU) branch(b *Block, spins uint64, i int, gated bool, u *uop, to uint32) *Block {
	c.retire(b, spins, i+1, gated)
	c.SetThumbPC(to)
	c.EmitBranch(u.at, to&^1)
	return c.chase(b, true)
}

// faultAt ends a block run at op i, which faulted on a data access to addr
// without changing state (the deopt contract: earlier ops fully executed).
// PC is materialized at the faulting instruction.
func (c *CPU) faultAt(b *Block, spins uint64, i int, gated bool, addr uint32) error {
	c.retire(b, spins, i+1, gated)
	at := b.ops[i].at
	c.R[PC] = at
	return c.memFault(at, addr)
}

// condPass[cond] has bit n set when cond holds under the flags n = NZCV.
// It is condHolds tabulated over all 16 encodings (15, like AL, always
// holds), so the executor's condition test is one lookup that inlines.
var condPass = func() (t [16]uint16) {
	var c CPU
	for cond := Cond(0); cond < 16; cond++ {
		for n := 0; n < 16; n++ {
			c.N, c.Z, c.C, c.V = n&8 != 0, n&4 != 0, n&2 != 0, n&1 != 0
			if c.condHolds(cond) {
				t[cond] |= 1 << n
			}
		}
	}
	return t
}()

// passes is condHolds by table lookup.
func (c *CPU) passes(cond Cond) bool {
	var n uint32
	if c.N {
		n |= 8
	}
	if c.Z {
		n |= 4
	}
	if c.C {
		n |= 2
	}
	if c.V {
		n |= 1
	}
	return condPass[cond&15]>>n&1 != 0
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
	b := &Block{key: pcKey(startPC, c.Thumb), valid: true, traced: c.Tracer != nil}
	_, b.startHooked = c.addrHooks[startPC]
	var binder InsnBinder
	if c.Tracer != nil {
		binder, _ = c.Tracer.(InsnBinder)
	}
	pc := startPC
	for len(b.ops) < maxBlockOps {
		insn := c.decodeAt(pc)
		if insn.Op == OpInvalid {
			break
		}
		u, ok := compileOp(pc, insn, c.Thumb)
		if !ok {
			break
		}
		switch {
		case binder != nil:
			u.trace = binder.BindInsn(pc, insn)
		case c.Tracer != nil:
			tr, at, in := c.Tracer, pc, insn
			u.trace = func(c *CPU) { tr.TraceInsn(c, at, in) }
		}
		if u.trace != nil {
			u.flags |= uopTraced
		}
		b.ops = append(b.ops, u)
		pc = u.next
		if u.kind.endsBlock() || insn.Rd == PC {
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
	if len(b.ops) == 0 {
		return nil
	}
	b.endPC = pc
	b.loops = loopsInPlace(b)
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

// loopsInPlace reports whether b is a single-block loop the executor may
// iterate in place: its last op is a direct branch (conditional or not) to
// b's own start, and no earlier op writes memory or runs foreign code. Such
// a body cannot invalidate the block, raise a gate bail, arm an injection
// site or reach a hook, so between passes only the budget and an injection
// armed from another goroutine need re-checking; a load's fault exit
// settles exactly like any other op's.
func loopsInPlace(b *Block) bool {
	last := &b.ops[len(b.ops)-1]
	if last.kind != uB || last.imm != b.key {
		return false
	}
	for i := range b.ops[:len(b.ops)-1] {
		if b.ops[i].flags&uopCheck != 0 {
			return false
		}
	}
	return true
}

// uopOf maps each Op to its micro-op kind; compileOp specialises ADD, SUB,
// MOV and CMP by operand form and LDM by whether it loads PC. Unmapped ops
// stay uInvalid.
var uopOf = [opMax]uopKind{
	OpADD: uADDrr, OpSUB: uSUBrr, OpRSB: uRSB, OpADC: uADC, OpSBC: uSBC,
	OpAND: uAND, OpORR: uORR, OpEOR: uEOR, OpBIC: uBIC,
	OpLSL: uLSL, OpLSR: uLSR, OpASR: uASR, OpROR: uROR,
	OpMUL: uMUL, OpSDIV: uSDIV, OpUDIV: uUDIV,
	OpMOV: uMOVr, OpMVN: uMVN, OpMOVW: uMOVW, OpMOVT: uMOVT,
	OpCMP: uCMP, OpCMN: uCMN, OpTST: uTST, OpTEQ: uTEQ,
	OpLDR: uLDR, OpLDRB: uLDRB, OpLDRH: uLDRH,
	OpSTR: uSTR, OpSTRB: uSTRB, OpSTRH: uSTRH, OpLDM: uLDM, OpSTM: uSTM,
	OpB: uB, OpBL: uBL, OpBX: uBX, OpBLX: uBLX,
	OpSVC: uSVC, OpNOP: uNOP, OpHLT: uHLT,
	OpFADDS: uFADDS, OpFSUBS: uFSUBS, OpFMULS: uFMULS, OpFDIVS: uFDIVS,
	OpFADDD: uFADDD, OpFSUBD: uFSUBD, OpFMULD: uFMULD, OpFDIVD: uFDIVD,
	OpSITOF: uSITOF, OpFTOSI: uFTOSI, OpSITOD: uSITOD, OpDTOSI: uDTOSI,
}

// compileOp pre-decodes one instruction into a micro-op. ok is false when
// the operation has no translation.
func compileOp(pc uint32, insn Insn, thumb bool) (u uop, ok bool) {
	if int(insn.Op) >= len(uopOf) || uopOf[insn.Op] == uInvalid {
		return u, false
	}
	u = uop{
		kind: uopOf[insn.Op],
		cond: insn.Cond,
		rd:   uint8(insn.Rd), rn: uint8(insn.Rn), rm: uint8(insn.Rm),
		imm: uint32(insn.Imm),
		at:  pc, next: pc + insn.Size,
	}
	if insn.HasImm {
		u.flags |= uopImm
	}
	if insn.SetFlags {
		u.flags |= uopSet
	}
	if insn.RegOffset {
		u.flags |= uopRegOff
	}
	if insn.Writeback {
		u.flags |= uopWB
	}
	if insn.Cond != CondAL {
		u.flags |= uopCond
	}
	if refsPC(insn) {
		u.flags |= uopPC
	}
	// form picks the kind of an op whose hot forms have their own kinds.
	form := func(imm, reg, set uopKind) uopKind {
		switch {
		case insn.SetFlags:
			return set
		case insn.HasImm:
			return imm
		}
		return reg
	}
	switch insn.Op {
	case OpADD:
		u.kind = form(uADDri, uADDrr, uADDS)
	case OpSUB:
		u.kind = form(uSUBri, uSUBrr, uSUBS)
	case OpMOV:
		u.kind = form(uMOVi, uMOVr, uMOVS)
	case OpCMP:
		if insn.HasImm {
			u.kind = uCMPri
		}
	case OpMOVW:
		u.imm &= 0xffff
	case OpMOVT:
		u.imm <<= 16
	case OpLDM, OpSTM:
		u.imm = uint32(insn.RegList)
		if insn.Op == OpLDM && insn.RegList&(1<<PC) != 0 {
			u.kind = uPOP
		}
	case OpB, OpBL:
		u.imm += u.next
		if thumb {
			u.imm |= 1
		}
	case OpSVC, OpHLT:
		// Syscall handlers and the halted state observe the interpreter's PC.
		u.flags |= uopPC
	}
	switch u.kind {
	case uSTR, uSTRB, uSTRH, uSTM, uSVC:
		u.flags |= uopCheck
	}
	return u, true
}

// refsPC reports whether the instruction reads R15 as a source: as an
// operand or base, as a store's data register, in a STM list, or as the high
// half of a double-precision pair starting at R14.
func refsPC(in Insn) bool {
	switch in.Op {
	case OpSTR, OpSTRB, OpSTRH:
		if in.Rd == PC {
			return true
		}
	case OpSTM:
		if in.RegList&(1<<PC) != 0 {
			return true
		}
	case OpFADDD, OpFSUBD, OpFMULD, OpFDIVD, OpDTOSI:
		if in.Rn == LR || in.Rm == LR {
			return true
		}
	}
	return in.Rn == PC || in.Rm == PC
}

func f32(bits uint32) float32  { return math.Float32frombits(bits) }
func f32bits(v float32) uint32 { return math.Float32bits(v) }
