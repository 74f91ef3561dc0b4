package dvm

// VM snapshot/restore for the copy-on-write System snapshot (core.Snapshot).
// Guest-memory contents (frame slots, object headers, stacks) are handled by
// mem.Memory's page-level COW; this file rewinds the host-side VM structures
// that shadow them. The scalars, flags, callbacks and counters are the
// embedded vmState, copied in one assignment each way; what needs real work
// is done field by field: the class registry and static slots, the object
// graph and the reference tables that point into it, hook lists, method and
// field IDs, loaded libraries and thread stacks. Fields outside both are kept
// across a restore (see the VM type).
//
// decodeEpoch and transEpoch are deliberately NOT part of the snapshot. They
// are the validity tokens of method decodes and fused chains, and restoring
// them backwards could revalidate one built against post-snapshot state (a
// hook or class registered during the attempt). Restore instead bumps both
// once: warm-boot methods decode again lazily, and everything built during
// the discarded attempt is dead by construction.

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
	state vmState

	classes      map[string]*dex.Class
	staticData   map[*dex.Class][]uint32
	staticTaints map[*dex.Class][]uint32

	objects map[uint32]*Object
	irt     map[uint32]*Object
	locals  [][]uint32

	methodIDs []*dex.Method
	fieldIDs  []*dex.Field

	hooks map[string][]InternalHook

	interned map[*dex.Insn]*Object

	threads []threadSnap

	nativeLibs []LoadedLib
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
		state: vm.vmState,

		classes:      make(map[string]*dex.Class, len(vm.classes)),
		staticData:   make(map[*dex.Class][]uint32),
		staticTaints: make(map[*dex.Class][]uint32),

		objects: make(map[uint32]*Object, len(vm.objects)),
		irt:     make(map[uint32]*Object, len(vm.irt)),

		methodIDs: append([]*dex.Method(nil), vm.methodIDs...),
		fieldIDs:  append([]*dex.Field(nil), vm.fieldIDs...),

		hooks: make(map[string][]InternalHook, len(vm.hooks)),

		interned: make(map[*dex.Insn]*Object, len(vm.internedStrings)),

		nativeLibs: append([]LoadedLib(nil), vm.nativeLibs...),
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
// re-copied in, so a snapshot survives any number of restores. The decode
// and chain epochs are bumped, never rewound (see the file comment).
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
	vm.vmState = s.state

	vm.irt = make(map[uint32]*Object, len(s.irt))
	for ref, o := range s.irt {
		if c, ok := ident[o]; ok {
			vm.irt[ref] = c
		} else {
			vm.irt[ref] = o
		}
	}
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

	vm.nativeLibs = append(vm.nativeLibs[:0], s.nativeLibs...)

	// Monotonic: invalidate every decode and chain built during the attempt
	// (and decode warm-boot methods again lazily) instead of rewinding.
	vm.decodeEpoch++
	vm.transEpoch++
}
