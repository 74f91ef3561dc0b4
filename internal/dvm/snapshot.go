package dvm

// VM snapshot/restore for the copy-on-write System snapshot (core.Snapshot).
// Guest-memory contents (frame slots, object headers, stacks) are handled by
// mem.Memory's page-level COW; this file rewinds the host-side VM structures
// that shadow them: the class registry, the object graph, reference tables,
// hooks, flags, and counters.
//
// transEpoch is deliberately NOT part of the snapshot. The epoch is the
// validity token baked into compiled methods, and restoring it backwards
// could revalidate a method compiled against post-snapshot state (a hook or
// class registered during the attempt). Restore instead bumps the epoch once:
// compiled code from the warm boot re-translates lazily, and everything
// compiled during the discarded attempt is dead by construction.

import (
	"repro/internal/dex"
	"repro/internal/taint"
)

// threadSnap is the rewindable state of one interpreter thread.
type threadSnap struct {
	th       *Thread
	cur      uint32
	frames   int
	retVal   uint64
	retTaint taint.Tag
	exc      *Object
}

// VMSnapshot holds the captured VM state.
type VMSnapshot struct {
	classes      map[string]*dex.Class
	staticData   map[*dex.Class][]uint32
	staticTaints map[*dex.Class][]uint32

	objects    map[uint32]*Object
	heapCursor uint32
	allocCount int
	gcThresh   int
	gcCount    int
	onGCMove   func(old, new uint32, o *Object)

	irt       map[uint32]*Object
	nextLocal uint32
	nextGlob  uint32
	locals    [][]uint32

	methodIDs []*dex.Method
	fieldIDs  []*dex.Field

	hooks map[string][]InternalHook

	taintJava, gateJava, taintSeen   bool
	interpretHookAll, noJavaTrans    bool
	fuseNative                       bool
	live                             *taint.Liveness
	javaStepFn                       func(th *Thread, m *dex.Method, pc int, insn *dex.Insn)
	javaLeakFn                       func(JavaLeak)
	onRegisterNatives                func(m *dex.Method, old, new uint32)
	onJNICall                        func(m *dex.Method)
	onNativeBind                     func(m *dex.Method, old, new uint32, dynamic bool)
	onReflectCall                    func(m *dex.Method)
	onUnreleased                     func(m *dex.Method, site uint32)
	nativeBudget, javaBudget         uint64
	javaInsns, javaTransMethods      uint64
	javaCleanFrames, javaTaintFrames uint64
	javaGateBails, javaDeopts        uint64
	jniCrossings, javaFusedChains    uint64
	javaFusedCalls, javaFuseDeopts   uint64

	interned map[*dex.Insn]*Object

	threads   []threadSnap
	curThread *Thread
	padDepth  int

	loadedLibs  []string
	nativeLibs  []LoadedLib
	nextLibBase uint32
}

// copyObject makes an isolated copy of o (slices included). Class pointers
// are shared — dex.Class identity must be stable across restore, which holds
// because snapshot-time objects only reference boot-registered classes and
// the restore puts those exact classes back in the registry.
func copyObject(o *Object) *Object {
	c := *o
	if o.Fields != nil {
		c.Fields = append([]uint32(nil), o.Fields...)
	}
	if o.FieldTaints != nil {
		c.FieldTaints = append([]taint.Tag(nil), o.FieldTaints...)
	}
	if o.Data != nil {
		c.Data = append([]byte(nil), o.Data...)
	}
	return &c
}

// Snapshot captures the VM's mutable state. The object graph is deep-copied
// (boot heaps are small — tens of objects); class bodies are shared except
// for their mutable static-field slots, which are copied.
func (vm *VM) Snapshot() *VMSnapshot {
	s := &VMSnapshot{
		classes:      make(map[string]*dex.Class, len(vm.classes)),
		staticData:   make(map[*dex.Class][]uint32),
		staticTaints: make(map[*dex.Class][]uint32),

		objects:    make(map[uint32]*Object, len(vm.objects)),
		heapCursor: vm.heapCursor,
		allocCount: vm.allocCount,
		gcThresh:   vm.GCThreshold,
		gcCount:    vm.GCCount,
		onGCMove:   vm.OnGCMove,

		irt:       make(map[uint32]*Object, len(vm.irt)),
		nextLocal: vm.nextLocal,
		nextGlob:  vm.nextGlob,

		methodIDs: append([]*dex.Method(nil), vm.methodIDs...),
		fieldIDs:  append([]*dex.Field(nil), vm.fieldIDs...),

		hooks: make(map[string][]InternalHook, len(vm.hooks)),

		taintJava:         vm.TaintJava,
		gateJava:          vm.GateJava,
		taintSeen:         vm.taintSeen,
		interpretHookAll:  vm.InterpretHookAll,
		noJavaTrans:       vm.NoJavaTranslate,
		fuseNative:        vm.FuseNative,
		live:              vm.Live,
		javaStepFn:        vm.javaStepFn,
		javaLeakFn:        vm.JavaLeakFn,
		onRegisterNatives: vm.OnRegisterNatives,
		onJNICall:         vm.OnJNICall,
		onNativeBind:      vm.OnNativeBind,
		onReflectCall:     vm.OnReflectCall,
		onUnreleased:      vm.OnUnreleased,
		nativeBudget:      vm.NativeBudget,
		javaBudget:        vm.JavaBudget,
		javaInsns:         vm.JavaInsnCount,
		javaTransMethods:  vm.JavaTransMethods,
		javaCleanFrames:   vm.JavaCleanFrames,
		javaTaintFrames:   vm.JavaTaintFrames,
		javaGateBails:     vm.JavaGateBails,
		javaDeopts:        vm.JavaDeopts,
		jniCrossings:      vm.JNICrossings,
		javaFusedChains:   vm.JavaFusedChains,
		javaFusedCalls:    vm.JavaFusedCalls,
		javaFuseDeopts:    vm.JavaFuseDeopts,

		interned: make(map[*dex.Insn]*Object, len(vm.internedStrings)),

		curThread: vm.curThread,
		padDepth:  vm.padDepth,

		loadedLibs:  append([]string(nil), vm.loadedLibs...),
		nativeLibs:  append([]LoadedLib(nil), vm.nativeLibs...),
		nextLibBase: vm.nextLibBase,
	}

	for name, c := range vm.classes {
		s.classes[name] = c
		if c.StaticData != nil {
			s.staticData[c] = append([]uint32(nil), c.StaticData...)
		}
		if c.StaticTaints != nil {
			s.staticTaints[c] = append([]uint32(nil), c.StaticTaints...)
		}
	}

	// Deep-copy the object graph; ident maps live objects to their copies so
	// the reference tables can be captured against the copies.
	ident := make(map[*Object]*Object, len(vm.objects))
	for addr, o := range vm.objects {
		c := copyObject(o)
		ident[o] = c
		s.objects[addr] = c
	}
	for ref, o := range vm.irt {
		if c, ok := ident[o]; ok {
			s.irt[ref] = c
		} else {
			s.irt[ref] = o
		}
	}
	for insn, o := range vm.internedStrings {
		if c, ok := ident[o]; ok {
			s.interned[insn] = c
		} else {
			s.interned[insn] = o
		}
	}
	s.locals = make([][]uint32, len(vm.locals))
	for i, frame := range vm.locals {
		s.locals[i] = append([]uint32(nil), frame...)
	}

	for name, hs := range vm.hooks {
		s.hooks[name] = append([]InternalHook(nil), hs...)
	}

	for _, th := range vm.threads {
		var exc *Object
		if th.Exception != nil {
			if c, ok := ident[th.Exception]; ok {
				exc = c
			} else {
				exc = th.Exception
			}
		}
		s.threads = append(s.threads, threadSnap{
			th: th, cur: th.cur, frames: len(th.Frames),
			retVal: th.RetVal, retTaint: th.RetTaint, exc: exc,
		})
	}
	return s
}

// Restore rewinds the VM to s. Object copies held by the snapshot are
// re-copied in, so a snapshot survives any number of restores. The
// translation epoch is bumped, never rewound (see the file comment).
func (vm *VM) Restore(s *VMSnapshot) {
	vm.classes = make(map[string]*dex.Class, len(s.classes))
	for name, c := range s.classes {
		vm.classes[name] = c
		if sd, ok := s.staticData[c]; ok {
			c.StaticData = append(c.StaticData[:0], sd...)
		} else {
			c.StaticData = nil
		}
		if st, ok := s.staticTaints[c]; ok {
			c.StaticTaints = append(c.StaticTaints[:0], st...)
		} else {
			c.StaticTaints = nil
		}
	}

	ident := make(map[*Object]*Object, len(s.objects))
	vm.objects = make(map[uint32]*Object, len(s.objects))
	for addr, o := range s.objects {
		c := copyObject(o)
		ident[o] = c
		vm.objects[addr] = c
	}
	vm.heapCursor = s.heapCursor
	vm.allocCount = s.allocCount
	vm.GCThreshold = s.gcThresh
	vm.GCCount = s.gcCount
	vm.OnGCMove = s.onGCMove

	vm.irt = make(map[uint32]*Object, len(s.irt))
	for ref, o := range s.irt {
		if c, ok := ident[o]; ok {
			vm.irt[ref] = c
		} else {
			vm.irt[ref] = o
		}
	}
	vm.nextLocal, vm.nextGlob = s.nextLocal, s.nextGlob
	vm.locals = make([][]uint32, len(s.locals))
	for i, frame := range s.locals {
		vm.locals[i] = append([]uint32(nil), frame...)
	}

	vm.methodIDs = append(vm.methodIDs[:0], s.methodIDs...)
	vm.fieldIDs = append(vm.fieldIDs[:0], s.fieldIDs...)

	// Hook lists keep their backing arrays across restores, so the next
	// attempt's analyzer re-registers without allocating; clear drops the
	// discarded attempt's closures (and the analyzer they capture).
	for name, hs := range vm.hooks {
		clear(hs)
		vm.hooks[name] = append(hs[:0], s.hooks[name]...)
	}
	for name, hs := range s.hooks {
		if _, ok := vm.hooks[name]; !ok {
			vm.hooks[name] = append([]InternalHook(nil), hs...)
		}
	}

	vm.TaintJava = s.taintJava
	vm.GateJava = s.gateJava
	vm.taintSeen = s.taintSeen
	vm.InterpretHookAll = s.interpretHookAll
	vm.NoJavaTranslate = s.noJavaTrans
	vm.FuseNative = s.fuseNative
	vm.Live = s.live
	vm.javaStepFn = s.javaStepFn
	vm.JavaLeakFn = s.javaLeakFn
	vm.OnRegisterNatives = s.onRegisterNatives
	vm.OnJNICall = s.onJNICall
	vm.OnNativeBind = s.onNativeBind
	vm.OnReflectCall = s.onReflectCall
	vm.OnUnreleased = s.onUnreleased
	vm.NativeBudget, vm.JavaBudget = s.nativeBudget, s.javaBudget
	vm.JavaInsnCount = s.javaInsns
	vm.JavaTransMethods = s.javaTransMethods
	vm.JavaCleanFrames = s.javaCleanFrames
	vm.JavaTaintFrames = s.javaTaintFrames
	vm.JavaGateBails = s.javaGateBails
	vm.JavaDeopts = s.javaDeopts
	vm.JNICrossings = s.jniCrossings
	vm.JavaFusedChains = s.javaFusedChains
	vm.JavaFusedCalls = s.javaFusedCalls
	vm.JavaFuseDeopts = s.javaFuseDeopts

	// Fusion state does not survive a restore: chains and heat counters are
	// keyed by method pointers from the discarded attempt, and the epoch bump
	// below would invalidate every chain anyway. Marshalling plans are kept:
	// they are keyed by shorty, so they pin no method. The pooled call
	// contexts are zeroed for the same reason.
	vm.fused = nil
	vm.fuseHeat = nil
	vm.releaseCtxPools()
	// Open UTF buffers belong to the discarded attempt's guest heap.
	vm.utfOpen, vm.utfBase = vm.utfOpen[:0], 0

	vm.internedStrings = make(map[*dex.Insn]*Object, len(s.interned))
	for insn, o := range s.interned {
		if c, ok := ident[o]; ok {
			vm.internedStrings[insn] = c
		} else {
			vm.internedStrings[insn] = o
		}
	}

	// Threads created after the snapshot are dropped; surviving threads have
	// any attempt-time frames released back to the pool and their interpreter
	// save-state rewound.
	vm.threads = vm.threads[:len(s.threads)]
	for _, ts := range s.threads {
		th := ts.th
		for len(th.Frames) > ts.frames {
			f := th.Frames[len(th.Frames)-1]
			th.Frames = th.Frames[:len(th.Frames)-1]
			vm.putFrame(f)
		}
		th.cur = ts.cur
		th.RetVal, th.RetTaint = ts.retVal, ts.retTaint
		if c, ok := ident[ts.exc]; ok {
			th.Exception = c
		} else {
			th.Exception = ts.exc
		}
	}
	vm.curThread = s.curThread
	vm.padDepth = s.padDepth

	vm.loadedLibs = append(vm.loadedLibs[:0], s.loadedLibs...)
	vm.nativeLibs = append(vm.nativeLibs[:0], s.nativeLibs...)
	vm.nextLibBase = s.nextLibBase

	// Monotonic: invalidate everything compiled during the attempt (and force
	// lazy retranslation of warm-boot methods) instead of rewinding the epoch.
	vm.transEpoch++
}
