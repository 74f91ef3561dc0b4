package dvm

import (
	"repro/internal/arm"
	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/taint"
)

// thread returns the thread on whose behalf native code is running.
func (vm *VM) thread() *Thread {
	if vm.curThread != nil {
		return vm.curThread
	}
	return vm.MainThread
}

// savedCPU snapshots the register state around a nested native call. Buffers
// are pooled per pad depth (getSavedCPU), so the bridge allocates nothing.
type savedCPU struct {
	R        [16]uint32
	N        bool
	Z        bool
	C        bool
	V        bool
	Thumb    bool
	RegTaint [16]taint.Tag
}

func (s *savedCPU) capture(c *arm.CPU) {
	s.R = c.R
	s.N, s.Z, s.C, s.V = c.N, c.Z, c.C, c.V
	s.Thumb = c.Thumb
	s.RegTaint = c.RegTaint
}

func (s *savedCPU) restore(c *arm.CPU) {
	c.R = s.R
	c.N, c.Z, c.C, c.V = s.N, s.Z, s.C, s.V
	c.Thumb = s.Thumb
	c.RegTaint = s.RegTaint
}

// getSavedCPU hands out the snapshot buffer for the current pad depth. Calls
// nest strictly (padDepth is incremented after the capture and decremented
// before the restore completes), so one buffer per depth suffices.
func (vm *VM) getSavedCPU() *savedCPU {
	for len(vm.savedCPUStack) <= vm.padDepth {
		vm.savedCPUStack = append(vm.savedCPUStack, &savedCPU{})
	}
	return vm.savedCPUStack[vm.padDepth]
}

// ctxAt hands out the zeroed CallCtx of pool for the current pad depth, so
// neither the JNI bridge nor a JNIEnv trampoline allocates one per call.
// Contexts of one pool nest strictly by depth: a bridge context is live from
// its hooks' Before to their After, while the native body runs one level
// deeper, and a JNIEnv context is live for one trampoline call, whose Java
// callbacks reach native code only through callNative one level deeper.
// Bridge and JNIEnv contexts take separate pools because a bridge at depth
// d+1 runs inside a trampoline at depth d+1. Hooks must not keep the pointer
// past the call.
func (vm *VM) ctxAt(pool *[]*CallCtx) *CallCtx {
	for len(*pool) <= vm.padDepth {
		*pool = append(*pool, &CallCtx{})
	}
	ctx := (*pool)[vm.padDepth]
	*ctx = CallCtx{}
	return ctx
}

// releaseCtxPools zeroes every pooled context, so none pins a method or an
// object of a discarded attempt.
func (vm *VM) releaseCtxPools() {
	for _, pool := range [][]*CallCtx{vm.bridgeCtxs, vm.envCtxs} {
		for _, ctx := range pool {
			*ctx = CallCtx{}
		}
	}
}

// marshalPlan is the pre-decoded shorty: one step byte per argument position
// plus the widths and return kind the bridge needs.
type marshalPlan struct {
	steps   []byte // per shorty arg: 'L' object, 'W' wide pair, 'P' prim word
	nWords  int    // AAPCS words incl. env + receiver
	static  bool
	retKind byte
	retWide bool
}

// planFor returns m's marshalling plan, decoding the shorty on m's first
// crossing. The plan is kept in m.Compiled, which a native method has no
// other use for. It derives only from the shorty and the static flag, so it
// is valid for any VM and pins nothing: the method owns it, not the VM, and
// it goes with the method's class.
func planFor(m *dex.Method) *marshalPlan {
	if p, ok := m.Compiled.(*marshalPlan); ok {
		return p
	}
	p := &marshalPlan{static: m.IsStatic(), retKind: m.Shorty[0], retWide: m.RetWide()}
	n := 2 // JNIEnv + receiver (this or class object)
	for i := 1; i < len(m.Shorty); i++ {
		switch m.Shorty[i] {
		case 'L':
			p.steps = append(p.steps, 'L')
			n++
		case 'J', 'D':
			p.steps = append(p.steps, 'W')
			n += 2
		default:
			p.steps = append(p.steps, 'P')
			n++
		}
	}
	p.nWords = n
	m.Compiled = p
	return p
}

// jniScratch is one pooled set of bridge argument arrays.
type jniScratch struct {
	cpuArgs   []uint32
	argTaints []taint.Tag
	argObjs   []*Object
}

func (vm *VM) getJNIScratch(n int) *jniScratch {
	var sc *jniScratch
	if l := len(vm.jniScratchPool); l > 0 {
		sc = vm.jniScratchPool[l-1]
		vm.jniScratchPool = vm.jniScratchPool[:l-1]
	} else {
		sc = &jniScratch{}
	}
	if cap(sc.cpuArgs) < n {
		sc.cpuArgs = make([]uint32, 0, n)
		sc.argTaints = make([]taint.Tag, 0, n)
		sc.argObjs = make([]*Object, 0, n)
	}
	sc.cpuArgs = sc.cpuArgs[:0]
	sc.argTaints = sc.argTaints[:0]
	sc.argObjs = sc.argObjs[:0]
	return sc
}

func (vm *VM) putJNIScratch(sc *jniScratch) {
	for i := range sc.argObjs {
		sc.argObjs[i] = nil // drop object pointers so the pool pins no heap
	}
	vm.jniScratchPool = append(vm.jniScratchPool, sc)
}

// marshalJNIArgs fills the scratch arrays with the AAPCS argument words for a
// JNI call: env, receiver ref, then the plan's steps over the Dalvik argument
// words. Objects become local indirect references — the exact AddLocalRef
// sequence is part of the bridge's observable behavior (ref numbering feeds
// guest memory).
func (vm *VM) marshalJNIArgs(plan *marshalPlan, m *dex.Method, args []uint32, taints []taint.Tag, sc *jniScratch) ([]uint32, []taint.Tag, []*Object) {
	cpuArgs := append(sc.cpuArgs, kernel.JNIEnvBase)
	argTaints := append(sc.argTaints, 0)
	argObjs := append(sc.argObjs, nil)

	idx := 0
	if plan.static {
		clsObj := vm.classObject(m.Class)
		cpuArgs = append(cpuArgs, vm.AddLocalRef(clsObj))
		argTaints = append(argTaints, 0)
		argObjs = append(argObjs, clsObj)
	} else {
		thisObj := vm.objects[args[0]]
		cpuArgs = append(cpuArgs, vm.AddLocalRef(thisObj))
		argTaints = append(argTaints, taints[0])
		argObjs = append(argObjs, thisObj)
		idx = 1
	}
	for _, step := range plan.steps {
		switch step {
		case 'L':
			o := vm.objects[args[idx]]
			cpuArgs = append(cpuArgs, vm.AddLocalRef(o))
			argTaints = append(argTaints, taints[idx])
			argObjs = append(argObjs, o)
			idx++
		case 'W':
			cpuArgs = append(cpuArgs, args[idx], args[idx+1])
			argTaints = append(argTaints, taints[idx], taints[idx+1])
			argObjs = append(argObjs, nil, nil)
			idx += 2
		default:
			cpuArgs = append(cpuArgs, args[idx])
			argTaints = append(argTaints, taints[idx])
			argObjs = append(argObjs, nil)
			idx++
		}
	}
	return cpuArgs, argTaints, argObjs
}

// callNative runs guest code at addr with AAPCS args and returns R0, R1, and
// the shadow taints of R0/R1 at return time (read before state restoration so
// NDroid's JNI-entry After hook can observe them).
func (vm *VM) callNative(addr uint32, args []uint32) (r0, r1 uint32, sh0, sh1 taint.Tag, err error) {
	c := vm.CPU
	saved := vm.getSavedCPU()
	saved.capture(c)
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
	c.SetThumbPC(addr)
	budget := vm.NativeBudget
	if budget == 0 {
		budget = 64 << 20
	}
	err = c.RunUntil(pad, budget)
	r0, r1 = c.R[0], c.R[1]
	sh0, sh1 = c.RegTaint[0], c.RegTaint[1]
	saved.restore(c)
	return r0, r1, sh0, sh1, err
}

// utfHandle is one GetStringUTFChars buffer not yet released: its guest
// address and the call instruction of the Get that returned it.
type utfHandle struct {
	buf  uint32
	site uint32
}

// openUTF starts a native crossing's own UTF entries at the current end of
// the open list and returns the enclosing crossing's start, for closeUTF.
func (vm *VM) openUTF() int {
	base := vm.utfBase
	vm.utfBase = len(vm.utfOpen)
	return base
}

// closeUTF ends the crossing of m opened by openUTF. When the native method
// returned normally, every buffer its own Gets left open is reported through
// OnUnreleased; either way those entries are dropped, so an enclosing
// crossing answers only for its own Gets.
func (vm *VM) closeUTF(m *dex.Method, base int, returned bool) {
	if returned && vm.OnUnreleased != nil {
		for _, h := range vm.utfOpen[vm.utfBase:] {
			if h.buf != 0 {
				vm.OnUnreleased(m, h.site)
			}
		}
	}
	vm.utfOpen = vm.utfOpen[:vm.utfBase]
	vm.utfBase = base
}

// releaseUTF closes the open entry of buf. An entry of the current crossing
// is removed; one of an enclosing crossing is only zeroed, so the entry
// indexes that crossing's start keeps stay valid. Releasing a buffer that is
// not open (twice, or one a returned crossing left behind) changes nothing.
func (vm *VM) releaseUTF(buf uint32) {
	for i := len(vm.utfOpen) - 1; i >= 0; i-- {
		if vm.utfOpen[i].buf != buf {
			continue
		}
		if i >= vm.utfBase {
			vm.utfOpen = append(vm.utfOpen[:i], vm.utfOpen[i+1:]...)
		} else {
			vm.utfOpen[i].buf = 0
		}
		return
	}
}

// jniRetDecode applies the bridge's return decoding: the raw R0/R1 pair
// becomes a Dalvik return value according to the return kind.
func (vm *VM) jniRetDecode(retKind byte, r0, r1 uint32) uint64 {
	switch retKind {
	case 'V':
		return 0
	case 'L':
		if o := vm.DecodeRef(r0); o != nil {
			return uint64(o.Addr)
		}
		return 0
	case 'J', 'D':
		return uint64(r0) | uint64(r1)<<32
	default:
		return uint64(r0)
	}
}

// callJNIMethod is the JNI call bridge (dvmCallJNIMethod): it marshals Java
// arguments into the AAPCS (objects become local indirect references), runs
// the native method on the CPU, and applies the JNI return-taint policy —
// TaintDroid's "return tainted iff any parameter tainted" unless an NDroid
// hook overrides it (§V-B "JNI Entry"). It is the one path from Java into
// native code; what a crossing can reuse across calls (the shorty decode,
// the receiver class object, the hooks' own per-method state) is memoized
// by its owner.
func (vm *VM) callJNIMethod(th *Thread, m *dex.Method, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object, error) {
	vm.JNICrossings++
	if vm.OnJNICall != nil {
		vm.OnJNICall(m)
	}
	if f := fault.Hit(SiteJNIBridge, m.NativeAddr); f != nil {
		f.Method = m.FullName()
		return 0, 0, nil, f
	}
	if m.NativeAddr == 0 {
		// Declared native but never bound (RegisterNatives/dlsym failed): on a
		// device this is the UnsatisfiedLinkError path; misusing it from the
		// bridge is a guest fault, not a crash.
		return 0, 0, nil, vm.faultf(fault.JNIMisuse, m, "native method has no bound implementation")
	}
	plan := planFor(m)
	vm.pushLocalFrame()
	defer vm.popLocalFrame()

	sc := vm.getJNIScratch(plan.nWords)
	defer vm.putJNIScratch(sc)
	cpuArgs, argTaints, argObjs := vm.marshalJNIArgs(plan, m, args, taints, sc)

	ctx := vm.ctxAt(&vm.bridgeCtxs)
	ctx.Thread = th
	ctx.Method = m
	ctx.CPUArgs, ctx.ArgTaints, ctx.ArgObjs = cpuArgs, argTaints, argObjs

	var r0, r1 uint32
	var sh0, sh1 taint.Tag
	var runErr error
	vm.callInternal(vm.jniBridge, vm.jniFrom, ctx, func() {
		base := vm.openUTF()
		r0, r1, sh0, sh1, runErr = vm.callNative(m.NativeAddr, cpuArgs)
		vm.closeUTF(m, base, runErr == nil)
		ctx.Ret = uint64(r0) | uint64(r1)<<32
		ctx.RetTaint = sh0
		if plan.retWide {
			ctx.RetTaint |= sh1
		}
	})
	if runErr != nil {
		return 0, 0, nil, vm.errorf("native method %s: %w", m.FullName(), runErr)
	}

	// Return-taint policy. TaintDroid: union of parameter taints when any is
	// tainted. NDroid hooks set RetOverride with the shadow-derived taint.
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
	// A tainted JNI return is taint entering the Java world.
	vm.NoteTaint(retTaint)

	ret := vm.jniRetDecode(plan.retKind, r0, r1)

	var thrown *Object
	if th.Exception != nil {
		thrown = th.Exception
		th.Exception = nil
	}
	return ret, retTaint, thrown, nil
}
