package dvm

// Cross-boundary trace fusion: hot, monomorphic Dalvik→JNI→ARM crossing
// chains are compiled into specialized host closures. The unfused bridge
// (jni.go) pays per call for work that is invariant per resolved method —
// shorty decoding, hook-list walking and closure setup, the full 16-register
// CPU snapshot/restore, the class-object scan for static receivers, and the
// ARM engine's entry-block lookup. A fused chain hoists all of it to bind
// time:
//
//   - the marshalling plan is the memoized shorty decode (jni.go);
//   - hook bodies are pre-bound via InternalHook.BindJNI (precomputed log
//     lines, reusable source policies, one-time entry-hook installation);
//   - the CPU save/restore shrinks to the chain's clobber set — the union of
//     the app images' static WriteRegs masks plus the AAPCS caller-saved set;
//   - the receiver class object is memoized instead of rescanned;
//   - the ARM entry block is threaded back as a hint, skipping the block-map
//     lookup on re-entry.
//
// Soundness rests on deopt, not on the specialization being right forever: a
// chain is valid only while the DVM translation epoch, the ARM code epoch,
// the method's native entry address, and the loaded-library count all match
// what bind time saw. Any mismatch — RegisterNatives re-registration, hook
// changes, self-modifying code, snapshot restore, library loads, or an
// injected SiteFusedDeopt fault — sends the crossing back through the unfused
// bridge, whose behavior is the specification (the parity suite holds the two
// byte-identical).

import (
	"repro/internal/arm"
	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/taint"
)

// fuseThreshold is the crossing count at which a method is fused.
// Small on purpose: a chain build is cheap (no codegen, just binding), and
// the unfused bridge it replaces is the dominant per-crossing cost.
const fuseThreshold = 4

// fusedChain is one compiled Dalvik→JNI→ARM crossing chain.
type fusedChain struct {
	m    *dex.Method
	plan *marshalPlan

	// Validity tokens captured at bind time; fuseLookup revalidates on every
	// dispatch. nativeAddr pins monomorphism (RegisterNatives rebinding),
	// dvmEpoch covers hook/class/step-fn mutations and snapshot restores,
	// armEpoch covers ARM hook changes and self-modifying code, nLibs
	// covers library loads extending the clobber universe.
	nativeAddr uint32
	dvmEpoch   uint64
	armEpoch   uint64
	nLibs      int

	// clobber is the register set the chain may touch: the union of every
	// loaded app image's WriteMask plus R0-R3, R12, SP, LR, and PC (AAPCS
	// caller-saved and call plumbing — host-modeled libc/kernel calls honor
	// the convention). Restoring only these replaces the full snapshot copy.
	clobber uint32

	// clsObj memoizes the receiver class object for static methods; it is
	// revalidated against the object table per call (GC keeps the pointer,
	// snapshot restore replaces the table and the epoch kills the chain).
	clsObj *Object

	// Pre-bound hook bodies, in registration order, and the precomputed
	// branch-event addresses of the internalCall they replace.
	before    []func(*CallCtx)
	after     []func(*CallCtx)
	entryAddr uint32
	fromAddr  uint32

	// entryHint is the chain's ARM entry block, threaded back through
	// RunUntilHint so re-entry skips the block-cache lookup.
	entryHint *arm.Block

	calls uint64
}

// fuseLookup returns the valid fused chain for m, building one when the
// method is hot, or nil when the crossing must take the unfused bridge. An
// invalid chain counts a deopt and is dropped; the deopted crossing itself
// runs unfused, and the next one may rebuild.
func (vm *VM) fuseLookup(m *dex.Method) *fusedChain {
	if fault.Hit(SiteFusedDeopt, m.NativeAddr) != nil {
		// Injected epoch-check corruption: whatever the dispatch state, the
		// corrupted check fails — an existing chain deopts, a pending build is
		// suppressed — and the crossing takes the unfused bridge. The fault is
		// absorbed, never surfaced: byte-identical flow logs are the proof.
		vm.dropChain(m)
		return nil
	}
	if fc, ok := vm.fused[m]; ok {
		valid := fc.dvmEpoch == vm.transEpoch &&
			fc.armEpoch == vm.CPU.CodeEpoch &&
			fc.nativeAddr == m.NativeAddr &&
			fc.nLibs == len(vm.nativeLibs)
		if valid {
			return fc
		}
		vm.dropChain(m)
		return nil
	}
	if m.NativeAddr == 0 {
		return nil // unfused bridge owns the unbound-method fault
	}
	heat := uint32(0)
	if vm.fuseHeat != nil {
		heat = vm.fuseHeat[m]
	}
	heat++
	if heat >= fuseThreshold {
		return vm.buildChain(m)
	}
	if vm.fuseHeat == nil {
		vm.fuseHeat = make(map[*dex.Method]uint32)
	}
	vm.fuseHeat[m] = heat
	return nil
}

// dropChain invalidates m's fused chain (idempotent).
func (vm *VM) dropChain(m *dex.Method) {
	if _, ok := vm.fused[m]; ok {
		delete(vm.fused, m)
		vm.JavaFuseDeopts++
	}
}

// chainClobberMask bounds the registers any execution of app native code can
// write: the static WriteRegs union over every loaded image, plus the AAPCS
// caller-saved registers (R0-R3, R12) for host-modeled libc/kernel calls, and
// SP/LR/PC, which the bridge itself repoints.
func (vm *VM) chainClobberMask() uint32 {
	m := uint32(0xf) | 1<<12 | 1<<arm.SP | 1<<arm.LR | 1<<arm.PC
	for _, lib := range vm.nativeLibs {
		m |= lib.Prog.WriteMask
	}
	return m
}

// buildChain compiles the fused chain for m. Hook binding runs first — a
// BindJNI body may install ARM entry hooks, bumping the code epoch — and the
// validity tokens are captured last, so the chain is born valid.
func (vm *VM) buildChain(m *dex.Method) *fusedChain {
	fc := &fusedChain{
		m:         m,
		plan:      vm.planFor(m),
		entryAddr: vm.internalAddrs["dvmCallJNIMethod"],
		fromAddr:  vm.callsiteOf("dvmInterpret"),
	}
	for _, h := range vm.hooks["dvmCallJNIMethod"] {
		before, after := h.Before, h.After
		if h.BindJNI != nil {
			if b, a, ok := h.BindJNI(m); ok {
				before, after = b, a
			}
		}
		if before != nil {
			fc.before = append(fc.before, before)
		}
		if after != nil {
			fc.after = append(fc.after, after)
		}
	}
	fc.nativeAddr = m.NativeAddr
	fc.dvmEpoch = vm.transEpoch
	fc.armEpoch = vm.CPU.CodeEpoch
	fc.nLibs = len(vm.nativeLibs)
	fc.clobber = vm.chainClobberMask()
	if vm.fused == nil {
		vm.fused = make(map[*dex.Method]*fusedChain)
	}
	vm.fused[m] = fc
	vm.JavaFusedChains++
	delete(vm.fuseHeat, m)
	return fc
}

// callFused is the specialized bridge. Every observable effect — fault probe,
// local-frame push, AddLocalRef numbering, branch events, hook order, taint
// policy, return decoding — replays the unfused callJNIMethod exactly; only
// the invariant setup work is gone.
func (vm *VM) callFused(fc *fusedChain, th *Thread, m *dex.Method, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object, error) {
	if f := fault.Hit(SiteJNIBridge, m.NativeAddr); f != nil {
		f.Method = m.FullName()
		return 0, 0, nil, f
	}
	fc.calls++
	vm.JavaFusedCalls++
	plan := fc.plan
	vm.pushLocalFrame()
	defer vm.popLocalFrame()

	var clsObj *Object
	if plan.static {
		clsObj = fc.clsObj
		if clsObj == nil || vm.objects[clsObj.Addr] != clsObj {
			clsObj = vm.classObject(m.Class)
			fc.clsObj = clsObj
		}
	}

	sc := vm.getJNIScratch(plan.nWords)
	defer vm.putJNIScratch(sc)
	cpuArgs, argTaints, argObjs := vm.marshalJNIArgs(plan, m, clsObj, args, taints, sc)

	ctx := vm.ctxAt(&vm.bridgeCtxs)
	ctx.VM, ctx.Name = vm, "dvmCallJNIMethod"
	ctx.Thread = th
	ctx.Method = m
	ctx.CPUArgs, ctx.ArgTaints, ctx.ArgObjs = cpuArgs, argTaints, argObjs

	// The internalCall sequence with the hook walk pre-bound.
	c := vm.CPU
	c.EmitBranch(fc.fromAddr, fc.entryAddr)
	for _, h := range fc.before {
		h(ctx)
	}
	r0, r1, sh0, sh1, runErr := vm.callNativeFused(fc, cpuArgs)
	ctx.Ret = uint64(r0) | uint64(r1)<<32
	ctx.RetTaint = sh0
	if plan.retWide {
		ctx.RetTaint |= sh1
	}
	for _, h := range fc.after {
		h(ctx)
	}
	c.EmitBranch(fc.entryAddr+4, fc.fromAddr+4)

	// Post-call revalidation: the native body may have re-registered itself,
	// registered hooks, or modified code. The next crossing rebuilds; After
	// hooks registered mid-crossing take effect from that crossing on.
	if vm.transEpoch != fc.dvmEpoch || c.CodeEpoch != fc.armEpoch ||
		m.NativeAddr != fc.nativeAddr || len(vm.nativeLibs) != fc.nLibs {
		vm.dropChain(m)
	}

	if runErr != nil {
		return 0, 0, nil, vm.errorf("native method %s: %w", m.FullName(), runErr)
	}

	var retTaint taint.Tag
	if ctx.RetOverride {
		retTaint = ctx.RetTaint
	} else {
		for _, t := range argTaints {
			retTaint |= t
		}
	}
	if !vm.TaintJava {
		retTaint = 0
	}
	vm.NoteTaint(retTaint)

	ret := vm.jniRetDecode(plan.retKind, r0, r1)

	var thrown *Object
	if th.Exception != nil {
		thrown = th.Exception
		th.Exception = nil
	}
	return ret, retTaint, thrown, nil
}

// callNativeFused is callNative with the full register restore replaced by
// the chain's clobber-set restore and the entry block served from the chain's
// hint. The full state is still captured (a cheap struct copy into a pooled
// buffer): when the code epoch moves during the run — self-modifying code or
// a hook installed mid-call — the WriteMask bound no longer covers what
// executed, so the bridge falls back to the full restore and the chain dies.
func (vm *VM) callNativeFused(fc *fusedChain, args []uint32) (r0, r1 uint32, sh0, sh1 taint.Tag, err error) {
	c := vm.CPU
	saved := vm.getSavedCPU()
	saved.capture(c)
	epoch := c.CodeEpoch
	pad := kernel.ReturnPadBase + uint32(vm.padDepth)*16
	vm.padDepth++
	defer func() { vm.padDepth-- }()

	sp := c.R[arm.SP]
	if len(args) > 4 {
		sp -= uint32(4 * (len(args) - 4))
		for i := 4; i < len(args); i++ {
			vm.Mem.Write32(sp+uint32(4*(i-4)), args[i])
		}
	}
	c.R[arm.SP] = sp
	for i := 0; i < 4; i++ {
		if i < len(args) {
			c.R[i] = args[i]
		}
		c.RegTaint[i] = 0
	}
	c.R[arm.LR] = pad
	c.SetThumbPC(fc.nativeAddr)
	budget := vm.NativeBudget
	if budget == 0 {
		budget = 64 << 20
	}
	hint, runErr := c.RunUntilHint(pad, budget, fc.entryHint)
	fc.entryHint = hint
	err = runErr
	r0, r1 = c.R[0], c.R[1]
	sh0, sh1 = c.RegTaint[0], c.RegTaint[1]
	if c.CodeEpoch != epoch {
		saved.restore(c)
		vm.dropChain(fc.m)
	} else {
		saved.restoreMasked(c, fc.clobber)
	}
	return r0, r1, sh0, sh1, err
}
