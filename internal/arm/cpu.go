package arm

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/taint"
)

// HookAction tells the CPU what to do after an address hook ran.
type HookAction int

const (
	// ActionContinue executes the instruction at the hooked address normally
	// (analysis-only hooks).
	ActionContinue HookAction = iota + 1
	// ActionReturn means the hook performed the entire call itself (a modeled
	// function or a trampoline into host code); the CPU simulates `BX LR`.
	ActionReturn
)

// AddrHook runs when the PC reaches a registered address — the reproduction
// of NDroid inserting TCG analysis code at function boundaries (§V-G).
type AddrHook func(c *CPU) HookAction

// Tracer observes every instruction right before it executes, exactly where
// NDroid's instruction tracer propagates taint ("before the instruction is
// executed", §V-G).
type Tracer interface {
	TraceInsn(c *CPU, addr uint32, insn Insn)
}

// BranchFunc observes every taken control transfer (from, to); multilevel
// hooking (Fig. 5) is built on this event stream.
type BranchFunc func(c *CPU, from, to uint32)

// CPU is the emulated guest processor. The embedded cpuState is exactly what
// Snapshot captures and Restore rewinds; the fields below it are kept across
// a restore, each for the reason its comment gives.
type CPU struct {
	cpuState

	Mem *mem.Memory

	// addrHooks is rewound by replaying hookUndo, not by copying.
	addrHooks map[uint32]AddrHook
	// hookUndo is the hook undo log: the hook each address Hook or Unhook
	// touched since the last Snapshot held then, which Restore puts back. It
	// is nil until the first Snapshot, so an unsnapshotted CPU journals nothing.
	hookUndo map[uint32]hookPrior

	// The decode and block caches are forward-valid over guest bytes plus
	// hook and tracer inputs, so they survive a restore: the write-notify
	// path and the hook undo log invalidate exactly the stale entries.
	decodeCache  map[uint32]*decodePage
	lastPageKey  uint32
	lastPage     *decodePage
	blockCache   map[uint32]*Block
	blocksByPage map[uint32][]*Block
	// codePages is a 2^20-bit page bitmap marking pages that hold cached
	// translations; the Memory write-notify consults it to keep stores to
	// non-code pages nearly free. Allocated lazily on first translation.
	codePages []uint32
	// codeExt records, per marked page, the [lo, hi) byte range actually
	// decoded or translated. Stores to a marked page but outside its code
	// extent cannot touch cached state, so the notify ignores them — this
	// is what keeps data that shares a page with code (small images place
	// .data right after .text) from forcing retranslation on every write.
	codeExt map[uint32][2]uint32
	// boundTracer is the Tracer the cached blocks were translated under;
	// RunUntilHint compares it with Tracer, so a restored Tracer is
	// reconciled on the next dispatch.
	boundTracer Tracer

	// CodeEpoch increments on every block invalidation — hooks added or
	// removed, self-modifying stores into code extents, tracer swaps,
	// snapshot restores that changed code pages. It is monotonic (never
	// rewound, even across Restore) so a cached chain that captured an
	// epoch can validate with one compare: equal epoch ⇒ no translation
	// anywhere was invalidated since. The fused JNI bridge keys its traces
	// off it.
	CodeEpoch uint64
}

// cpuState is the CPU's rewindable state: registers and flags, the observers
// and handlers the analyzer installs, the cache and gate switches with their
// counters, and the run status. Snapshot and Restore copy it whole.
type cpuState struct {
	R     [16]uint32 // R13=SP, R14=LR, R15=PC
	N     bool
	Z     bool
	C     bool
	V     bool
	Thumb bool

	// RegTaint is the shadow register file maintained by the taint engine
	// (§V-E, "NDroid maintains shadow registers").
	RegTaint [16]taint.Tag

	// Tracer, when non-nil, is invoked before every executed instruction.
	Tracer Tracer
	// DecodeHook, when non-nil, observes every successfully decoded
	// instruction (the disassembler round-trip test records the decode set
	// of a whole run through it). It fires per decode, not per execution:
	// cached translations do not re-invoke it.
	DecodeHook func(pc uint32, thumb bool, insn Insn)
	// BranchFn, when non-nil, is invoked on every taken control transfer.
	BranchFn BranchFunc
	// branchWatchLo/Hi bound the transfer targets BranchFn cares about
	// (the whole address space when no watch is set): EmitBranch rejects
	// other targets with two compares instead of two indirect calls. The
	// multilevel hook engine narrows the watch to the libdvm entry range
	// while its precondition chain is at level 0 — the steady state in
	// clean native code.
	branchWatchLo, branchWatchHi uint32
	// SVC handles supervisor calls (the kernel syscall interface).
	SVC func(c *CPU, num uint32) error

	// checkHook gates the hook-table lookup: hooks sit at function entries,
	// which are only reached through control transfers, so the lookup runs
	// after branches rather than on every instruction (the analog of QEMU
	// checking for instrumentation at translation-block entry).
	checkHook bool

	// UseDecodeCache enables the hot-instruction cache (§V-C: "NDroid caches
	// hot instructions and the corresponding handlers"). The cache is paged
	// with a one-entry page memo, exploiting code locality.
	UseDecodeCache bool
	// CacheHits/CacheMisses feed the decode-cache ablation benchmark.
	CacheHits   uint64
	CacheMisses uint64

	// UseBlockCache enables the basic-block translation engine (the TCG
	// analog; see translate.go): Run/RunUntil execute cached blocks of
	// pre-decoded micro-ops instead of the per-instruction
	// fetch/decode/dispatch loop. Step() always uses the interpreter.
	UseBlockCache bool
	// BlockHits counts block executions served from the cache (including
	// chained successors); BlockMisses counts translations.
	BlockHits   uint64
	BlockMisses uint64

	// UseTaintGate enables demand-driven instrumentation: blocks translated
	// under a tracer also run bare, without calling their ops' pre-bound
	// Table V handlers, and block dispatch selects that variant whenever no
	// taint is live anywhere the tracer could propagate from (the attached
	// Liveness aggregate plus the shadow register file). Off by default;
	// core.NewAnalyzer turns it on once the liveness wiring is complete.
	UseTaintGate bool
	// Live is the process-wide taint liveness aggregate (attach with
	// AttachLiveness). The gate consults its SrcMem count; register taint is
	// scanned directly (16 words) instead of being write-instrumented.
	Live *taint.Liveness
	// gateBail is set by a liveness edge (first taint introduced) while a
	// bare block may be mid-run; the executor checks it after every op that
	// can introduce taint (stores, SVC) so the rest of the block re-dispatches
	// onto the instrumented variant.
	gateBail    bool
	gateWasLive bool
	// GateFlips counts fast<->slow transitions observed at block dispatch;
	// GateFastBlocks/GateSlowBlocks count block executions per variant.
	GateFlips      uint64
	GateFastBlocks uint64
	GateSlowBlocks uint64

	// OnCodeWrite observes guest stores that land inside a translated code
	// extent — the self-modifying-code events that force retranslation. The
	// JNI surface observer subscribes to it to catch natives that rewrite
	// their own hooks; it fires after the invalidation so the callback sees
	// the post-invalidation epoch.
	OnCodeWrite func(addr uint32)

	Halted    bool
	ExitCode  int32
	InsnCount uint64
}

// decodePage caches decoded instructions for one 4 KiB page (indexed by
// halfword offset; Size == 0 marks an empty slot).
type decodePage [2048]Insn

// New returns a CPU attached to m with an empty hook table. The CPU
// subscribes to m's write notifications so that stores into translated code
// pages invalidate the decoded-instruction and block caches.
func New(m *mem.Memory) *CPU {
	c := &CPU{
		cpuState:    cpuState{branchWatchHi: math.MaxUint32, checkHook: true},
		Mem:         m,
		addrHooks:   make(map[uint32]AddrHook),
		decodeCache: make(map[uint32]*decodePage),
		lastPageKey: ^uint32(0),
	}
	m.AddWriteNotify(c.onMemWrite)
	return c
}

// AttachLiveness connects the CPU to the process-wide taint liveness
// aggregate and subscribes to its edges: the first tag introduced anywhere
// (source hook, JNI entry marshalling, SetRange from a syscall model) raises
// gateBail so that a bare fast-path block already executing is abandoned at
// its next step boundary and the remainder re-dispatches instrumented.
func (c *CPU) AttachLiveness(l *taint.Liveness) {
	c.Live = l
	l.Subscribe(func(s taint.Source, live bool) {
		if live {
			c.gateBail = true
		}
	})
}

// TaintedRegs returns how many shadow registers currently carry taint — the
// register-file analog of MemTaint.TaintedBytes, computed by scanning the 16
// entries (cheaper at dispatch granularity than write-instrumenting every
// Table V handler).
func (c *CPU) TaintedRegs() int {
	n := 0
	for _, t := range &c.RegTaint {
		if t != 0 {
			n++
		}
	}
	return n
}

// taintLive is the native-side gate predicate: true when any taint exists
// that Table V propagation could read — tainted native memory or a tainted
// shadow register. Java-side object tags do not force the slow path: they
// can only reach native state through boundary marshalling, which raises the
// mem/register counts itself.
//
// The clean state is edge-cached: while the previous dispatch found the
// machine clean and no bail has been raised since, nothing can have changed
// — memory/ref/Java introductions fire a liveness edge (which sets
// gateBail), Table V handlers only run on the slow path, and every non-
// tracer shadow-register writer goes through SetRegTaint (which sets
// gateBail for nonzero tags). The slow state is never cached: each
// instrumented dispatch re-derives liveness so draining taint re-engages
// the fast path immediately.
func (c *CPU) taintLive() bool {
	if !c.gateWasLive && !c.gateBail {
		return false
	}
	c.gateBail = false
	if c.Live != nil && c.Live.Count(taint.SrcMem) != 0 {
		return true
	}
	var or taint.Tag
	for _, t := range &c.RegTaint {
		or |= t
	}
	return or != 0
}

// SetRegTaint writes one shadow register from hook or model context (source
// policies, JNI marshalling, libc models — anything outside the Table V
// handlers, which only execute on the instrumented path). Such writers must
// use it instead of storing into RegTaint directly: a nonzero tag raises
// gateBail so the gate's cached clean verdict is re-derived at the next
// block dispatch.
func (c *CPU) SetRegTaint(i int, t taint.Tag) {
	c.RegTaint[i] = t
	if t != 0 {
		c.gateBail = true
	}
}

// Hook registers fn at addr (bit 0 ignored). A second registration at the
// same address replaces the first; composition is the caller's concern.
// Blocks on the affected page are invalidated: translation stops blocks at
// hooked addresses, and hooks are added mid-run (the multilevel hooking
// engine and the SourcePolicy entry hooks both do so).
func (c *CPU) Hook(addr uint32, fn AddrHook) {
	addr &^= 1
	c.journalHook(addr)
	c.addrHooks[addr] = fn
	c.invalidatePageBlocks(addr >> 12)
}

// Unhook removes any hook at addr and invalidates the page's blocks.
func (c *CPU) Unhook(addr uint32) {
	addr &^= 1
	c.journalHook(addr)
	delete(c.addrHooks, addr)
	c.invalidatePageBlocks(addr >> 12)
}

// HookedAddrs reports how many addresses currently carry hooks.
func (c *CPU) HookedAddrs() int { return len(c.addrHooks) }

// EmitBranch publishes a synthetic control-transfer event. The DVM layer uses
// this so that calls flowing through host-implemented libdvm functions still
// appear on the branch stream that multilevel hooking watches. The filter
// inlines into every translated branch step; only delivery is a call.
func (c *CPU) EmitBranch(from, to uint32) {
	if c.BranchFn != nil && to >= c.branchWatchLo && to <= c.branchWatchHi {
		c.BranchFn(c, from, to)
	}
}

// SetBranchWatch narrows branch-event delivery to targets in [lo, hi]. The
// observer must be able to prove that transfers outside the range cannot
// change its state (the multilevel chain at level 0 only reacts to JNI-exit
// entries, which all live inside the watched range).
func (c *CPU) SetBranchWatch(lo, hi uint32) {
	c.branchWatchLo, c.branchWatchHi = lo, hi
}

// ClearBranchWatch restores delivery of every branch event.
func (c *CPU) ClearBranchWatch() { c.branchWatchLo, c.branchWatchHi = 0, math.MaxUint32 }

// Arg returns the i-th AAPCS argument (R0–R3, then the stack).
func (c *CPU) Arg(i int) uint32 {
	if i < 4 {
		return c.R[i]
	}
	return c.Mem.Read32(c.R[SP] + uint32(i-4)*4)
}

// SetThumbPC sets PC (and the Thumb state) from an interworking address.
// Landing via an explicit PC change re-arms the hook check.
func (c *CPU) SetThumbPC(addr uint32) {
	c.Thumb = addr&1 != 0
	c.R[PC] = addr &^ 1
	c.checkHook = true
}

func (c *CPU) fetch(pc uint32) Insn {
	if c.UseDecodeCache {
		pageKey := pc >> 12 << 1
		if c.Thumb {
			pageKey |= 1
		}
		page := c.lastPage
		if pageKey != c.lastPageKey {
			var ok bool
			page, ok = c.decodeCache[pageKey]
			if !ok {
				page = new(decodePage)
				c.decodeCache[pageKey] = page
			}
			c.lastPageKey = pageKey
			c.lastPage = page
		}
		slot := &page[(pc&0xfff)>>1]
		if slot.Size != 0 {
			c.CacheHits++
			return *slot
		}
		c.CacheMisses++
		insn := c.decodeAt(pc)
		*slot = insn
		// Mark only the decoded bytes, not the whole page: the write-notify
		// extent check then lets data on the same page be stored to freely.
		c.markCodeRange(pc, pc+uint32(insn.Size))
		return insn
	}
	return c.decodeAt(pc)
}

func (c *CPU) decodeAt(pc uint32) Insn {
	// An all-zero word on an unmapped page is the signature of a wild branch:
	// sparse memory reads back zeroes, which happen to decode as valid
	// instructions (ARM: ANDEQ, Thumb: MOVS). Mapped is only consulted for
	// zero words, so well-formed code never pays the page probe.
	if c.Thumb {
		w0 := c.Mem.Read16(pc)
		if w0 == 0 && !c.Mem.Mapped(pc) {
			return Insn{Op: OpInvalid, Size: 2}
		}
		insn := DecodeThumb(w0, c.Mem.Read16(pc+2))
		if c.DecodeHook != nil && insn.Op != OpInvalid {
			c.DecodeHook(pc, true, insn)
		}
		return insn
	}
	w := c.Mem.Read32(pc)
	if w == 0 && !c.Mem.Mapped(pc) {
		return Insn{Op: OpInvalid, Size: 4}
	}
	insn := Decode(w)
	if c.DecodeHook != nil && insn.Op != OpInvalid {
		c.DecodeHook(pc, false, insn)
	}
	return insn
}

func (c *CPU) condHolds(cond Cond) bool {
	switch cond {
	case CondEQ:
		return c.Z
	case CondNE:
		return !c.Z
	case CondCS:
		return c.C
	case CondCC:
		return !c.C
	case CondMI:
		return c.N
	case CondPL:
		return !c.N
	case CondVS:
		return c.V
	case CondVC:
		return !c.V
	case CondHI:
		return c.C && !c.Z
	case CondLS:
		return !c.C || c.Z
	case CondGE:
		return c.N == c.V
	case CondLT:
		return c.N != c.V
	case CondGT:
		return !c.Z && c.N == c.V
	case CondLE:
		return c.Z || c.N != c.V
	default:
		return true
	}
}

// Step executes a single instruction (running any hook at the current PC
// first). It returns an error for invalid encodings or failed SVCs.
func (c *CPU) Step() error {
	if c.Halted {
		return nil
	}
	pc := c.R[PC]
	if c.checkHook {
		c.checkHook = false
		if hook, ok := c.addrHooks[pc]; ok {
			switch hook(c) {
			case ActionReturn:
				ret := c.R[LR]
				c.SetThumbPC(ret)
				c.EmitBranch(pc, ret&^1)
				return nil
			}
			if c.Halted || c.R[PC] != pc {
				// The hook halted the CPU or redirected control itself.
				return nil
			}
		}
	}
	insn := c.fetch(pc)
	if insn.Op == OpInvalid {
		return c.fetchFault(pc)
	}
	c.InsnCount++
	if !c.condHolds(insn.Cond) {
		c.R[PC] = pc + insn.Size
		return nil
	}
	if c.Tracer != nil {
		c.Tracer.TraceInsn(c, pc, insn)
	}
	return c.exec(pc, insn)
}

func (c *CPU) setNZ(v uint32) {
	c.N = v&0x80000000 != 0
	c.Z = v == 0
}

func (c *CPU) addWithCarry(a, b uint32, carry uint32, setFlags bool) uint32 {
	r64 := uint64(a) + uint64(b) + uint64(carry)
	r := uint32(r64)
	if setFlags {
		c.setNZ(r)
		c.C = r64 > 0xffffffff
		c.V = (a^b)&0x80000000 == 0 && (a^r)&0x80000000 != 0
	}
	return r
}

func (c *CPU) operand2(insn Insn) uint32 {
	if insn.HasImm {
		return uint32(insn.Imm)
	}
	return c.R[insn.Rm]
}

func (c *CPU) exec(pc uint32, insn Insn) error {
	next := pc + insn.Size
	branchTo := uint32(0)
	branched := false

	switch insn.Op {
	case OpADD:
		c.R[insn.Rd] = c.addWithCarry(c.R[insn.Rn], c.operand2(insn), 0, insn.SetFlags)
	case OpSUB:
		c.R[insn.Rd] = c.addWithCarry(c.R[insn.Rn], ^c.operand2(insn), 1, insn.SetFlags)
	case OpRSB:
		c.R[insn.Rd] = c.addWithCarry(c.operand2(insn), ^c.R[insn.Rn], 1, insn.SetFlags)
	case OpADC:
		carry := uint32(0)
		if c.C {
			carry = 1
		}
		c.R[insn.Rd] = c.addWithCarry(c.R[insn.Rn], c.operand2(insn), carry, insn.SetFlags)
	case OpSBC:
		carry := uint32(0)
		if c.C {
			carry = 1
		}
		c.R[insn.Rd] = c.addWithCarry(c.R[insn.Rn], ^c.operand2(insn), carry, insn.SetFlags)
	case OpAND:
		c.R[insn.Rd] = c.R[insn.Rn] & c.operand2(insn)
		if insn.SetFlags {
			c.setNZ(c.R[insn.Rd])
		}
	case OpORR:
		c.R[insn.Rd] = c.R[insn.Rn] | c.operand2(insn)
		if insn.SetFlags {
			c.setNZ(c.R[insn.Rd])
		}
	case OpEOR:
		c.R[insn.Rd] = c.R[insn.Rn] ^ c.operand2(insn)
		if insn.SetFlags {
			c.setNZ(c.R[insn.Rd])
		}
	case OpBIC:
		c.R[insn.Rd] = c.R[insn.Rn] &^ c.operand2(insn)
		if insn.SetFlags {
			c.setNZ(c.R[insn.Rd])
		}
	case OpLSL:
		sh := c.operand2(insn) & 0xff
		v := c.R[insn.Rn]
		if sh >= 32 {
			v = 0
		} else {
			v <<= sh
		}
		c.R[insn.Rd] = v
		if insn.SetFlags {
			c.setNZ(v)
		}
	case OpLSR:
		sh := c.operand2(insn) & 0xff
		v := c.R[insn.Rn]
		if sh >= 32 {
			v = 0
		} else {
			v >>= sh
		}
		c.R[insn.Rd] = v
		if insn.SetFlags {
			c.setNZ(v)
		}
	case OpASR:
		sh := c.operand2(insn) & 0xff
		if sh >= 32 {
			sh = 31
		}
		v := uint32(int32(c.R[insn.Rn]) >> sh)
		c.R[insn.Rd] = v
		if insn.SetFlags {
			c.setNZ(v)
		}
	case OpROR:
		sh := c.operand2(insn) & 31
		v := c.R[insn.Rn]
		v = v>>sh | v<<(32-sh)
		c.R[insn.Rd] = v
		if insn.SetFlags {
			c.setNZ(v)
		}
	case OpMUL:
		c.R[insn.Rd] = c.R[insn.Rn] * c.R[insn.Rm]
		if insn.SetFlags {
			c.setNZ(c.R[insn.Rd])
		}
	case OpSDIV:
		d := int32(c.R[insn.Rm])
		if d == 0 {
			c.R[insn.Rd] = 0
		} else {
			c.R[insn.Rd] = uint32(int32(c.R[insn.Rn]) / d)
		}
	case OpUDIV:
		d := c.R[insn.Rm]
		if d == 0 {
			c.R[insn.Rd] = 0
		} else {
			c.R[insn.Rd] = c.R[insn.Rn] / d
		}
	case OpMOV:
		c.R[insn.Rd] = c.operand2(insn)
		if insn.SetFlags {
			c.setNZ(c.R[insn.Rd])
		}
	case OpMVN:
		c.R[insn.Rd] = ^c.operand2(insn)
		if insn.SetFlags {
			c.setNZ(c.R[insn.Rd])
		}
	case OpMOVW:
		c.R[insn.Rd] = uint32(insn.Imm) & 0xffff
	case OpMOVT:
		c.R[insn.Rd] = c.R[insn.Rd]&0xffff | uint32(insn.Imm)<<16
	case OpCMP:
		c.addWithCarry(c.R[insn.Rn], ^c.operand2(insn), 1, true)
	case OpCMN:
		c.addWithCarry(c.R[insn.Rn], c.operand2(insn), 0, true)
	case OpTST:
		c.setNZ(c.R[insn.Rn] & c.operand2(insn))
	case OpTEQ:
		c.setNZ(c.R[insn.Rn] ^ c.operand2(insn))
	case OpLDR, OpLDRB, OpLDRH:
		addr := c.memAddr(insn)
		if badAddr(addr) {
			return c.memFault(pc, addr)
		}
		switch insn.Op {
		case OpLDR:
			c.R[insn.Rd] = c.Mem.Read32(addr)
		case OpLDRB:
			c.R[insn.Rd] = uint32(c.Mem.Read8(addr))
		case OpLDRH:
			c.R[insn.Rd] = uint32(c.Mem.Read16(addr))
		}
	case OpSTR, OpSTRB, OpSTRH:
		addr := c.memAddr(insn)
		if badAddr(addr) {
			return c.memFault(pc, addr)
		}
		switch insn.Op {
		case OpSTR:
			c.Mem.Write32(addr, c.R[insn.Rd])
		case OpSTRB:
			c.Mem.Write8(addr, uint8(c.R[insn.Rd]))
		case OpSTRH:
			c.Mem.Write16(addr, uint16(c.R[insn.Rd]))
		}
	case OpSTM:
		count := popCount(insn.RegList)
		base := c.R[insn.Rn]
		if insn.Writeback { // push semantics: descending
			base -= 4 * count
		}
		if badAddr(base) {
			// Checked before the writeback lands so a faulting push leaves the
			// base register unchanged (deopt contract: no partial state).
			return c.memFault(pc, base)
		}
		if insn.Writeback {
			c.R[insn.Rn] = base
		}
		addr := base
		for r := 0; r < 16; r++ {
			if insn.RegList&(1<<r) != 0 {
				c.Mem.Write32(addr, c.R[r])
				addr += 4
			}
		}
	case OpLDM:
		addr := c.R[insn.Rn]
		if badAddr(addr) {
			return c.memFault(pc, addr)
		}
		for r := 0; r < 16; r++ {
			if insn.RegList&(1<<r) == 0 {
				continue
			}
			v := c.Mem.Read32(addr)
			addr += 4
			if r == PC {
				branched = true
				branchTo = v
			} else {
				c.R[r] = v
			}
		}
		if insn.Writeback {
			c.R[insn.Rn] = addr
		}
	case OpB:
		branched = true
		branchTo = next + uint32(insn.Imm)
		if c.Thumb {
			branchTo |= 1
		}
	case OpBL:
		lr := next
		if c.Thumb {
			lr |= 1
		}
		c.R[LR] = lr
		branched = true
		branchTo = next + uint32(insn.Imm)
		if c.Thumb {
			branchTo |= 1
		}
	case OpBX:
		branched = true
		branchTo = c.R[insn.Rm]
	case OpBLX:
		// The target is read before LR is written, so BLX LR jumps to the
		// old LR (as on ARM) rather than to the next instruction.
		branched = true
		branchTo = c.R[insn.Rm]
		lr := next
		if c.Thumb {
			lr |= 1
		}
		c.R[LR] = lr
	case OpSVC:
		if c.SVC == nil {
			return fmt.Errorf("arm: SVC #%d at 0x%08x with no handler", insn.Imm, pc)
		}
		if err := c.SVC(c, uint32(insn.Imm)); err != nil {
			return fmt.Errorf("arm: SVC #%d at 0x%08x: %w", insn.Imm, pc, err)
		}
	case OpNOP:
		// nothing
	case OpHLT:
		c.Halted = true
		return nil
	case OpFADDS, OpFSUBS, OpFMULS, OpFDIVS:
		a := math.Float32frombits(c.R[insn.Rn])
		b := math.Float32frombits(c.R[insn.Rm])
		var r float32
		switch insn.Op {
		case OpFADDS:
			r = a + b
		case OpFSUBS:
			r = a - b
		case OpFMULS:
			r = a * b
		case OpFDIVS:
			r = a / b
		}
		c.R[insn.Rd] = math.Float32bits(r)
	case OpFADDD, OpFSUBD, OpFMULD, OpFDIVD:
		a := c.readF64(insn.Rn)
		b := c.readF64(insn.Rm)
		var r float64
		switch insn.Op {
		case OpFADDD:
			r = a + b
		case OpFSUBD:
			r = a - b
		case OpFMULD:
			r = a * b
		case OpFDIVD:
			r = a / b
		}
		c.writeF64(insn.Rd, r)
	case OpSITOF:
		c.R[insn.Rd] = math.Float32bits(float32(int32(c.R[insn.Rm])))
	case OpFTOSI:
		c.R[insn.Rd] = uint32(int32(math.Float32frombits(c.R[insn.Rm])))
	case OpSITOD:
		c.writeF64(insn.Rd, float64(int32(c.R[insn.Rm])))
	case OpDTOSI:
		c.R[insn.Rd] = uint32(int32(c.readF64(insn.Rm)))
	default:
		return c.undefFault(pc, insn)
	}

	if branched {
		c.SetThumbPC(branchTo)
		c.EmitBranch(pc, branchTo&^1)
	} else {
		c.R[PC] = next
	}
	return nil
}

func (c *CPU) memAddr(insn Insn) uint32 {
	if insn.RegOffset {
		return c.R[insn.Rn] + c.R[insn.Rm]
	}
	return c.R[insn.Rn] + uint32(insn.Imm)
}

func (c *CPU) readF64(r int8) float64 {
	lo := uint64(c.R[r])
	hi := uint64(c.R[r+1])
	return math.Float64frombits(hi<<32 | lo)
}

func (c *CPU) writeF64(r int8, v float64) {
	bits := math.Float64bits(v)
	c.R[r] = uint32(bits)
	c.R[r+1] = uint32(bits >> 32)
}

func popCount(v uint16) uint32 {
	var n uint32
	for v != 0 {
		n += uint32(v & 1)
		v >>= 1
	}
	return n
}

// Run executes until the CPU halts, an error occurs, or maxInsns are
// executed (0 means a generous default of 256M).
func (c *CPU) Run(maxInsns uint64) error {
	return c.RunUntil(0xffffffff, maxInsns)
}

// RunUntil executes until PC reaches stop, the CPU halts, an error occurs,
// or maxInsns instructions have been executed. It is the primitive that the
// JNI call bridge uses to run a native method to completion: the bridge sets
// LR to a return pad and runs until the pad is reached.
func (c *CPU) RunUntil(stop uint32, maxInsns uint64) error {
	_, err := c.RunUntilHint(stop, maxInsns, nil)
	return err
}

// runInterp is RunUntil on the per-instruction interpreter (block engine off):
// every instruction is one dispatch.
func (c *CPU) runInterp(stop uint32, maxInsns uint64) error {
	start := c.InsnCount
	for !c.Halted && c.R[PC] != stop {
		if f := fault.Hit(SiteDispatch, c.R[PC]); f != nil {
			return f
		}
		if err := c.Step(); err != nil {
			return err
		}
		if c.InsnCount-start > maxInsns {
			return c.budgetFault(maxInsns)
		}
	}
	return nil
}
