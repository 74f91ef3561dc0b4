package dvm

import (
	"encoding/binary"
	"sort"

	"repro/internal/kernel"
)

// RunGC performs a mark-compact collection. Live objects are slid toward the
// bottom of the Dalvik heap, receiving new direct addresses; the indirect
// reference table keeps resolving because it stores host pointers (the analog
// of the runtime updating the IRT when the collector moves objects, §II-A).
// Direct pointers that native code squirreled away are deliberately NOT
// fixed up — that is exactly the hazard indirect references exist to solve,
// and tests exercise it.
//
// Frame register slots, static fields, instance fields, and reference arrays
// are rewritten conservatively (a slot whose value equals a moved object's
// old address is updated).
//
// It returns the number of objects that changed address.
func (vm *VM) RunGC() int {
	vm.GCCount++
	marked := make(map[*Object]bool)
	var stack []*Object

	push := func(o *Object) {
		if o != nil && !marked[o] {
			marked[o] = true
			stack = append(stack, o)
		}
	}
	pushAddr := func(addr uint32) {
		if o, ok := vm.objects[addr]; ok {
			push(o)
		}
	}

	// Roots: indirect references.
	for _, o := range vm.irt {
		push(o)
	}
	// Roots: interned const-string objects (the executor returns them
	// across collections).
	for _, o := range vm.internedStrings {
		push(o)
	}
	// Roots: class static fields.
	for _, c := range vm.classes {
		for _, v := range c.StaticData {
			pushAddr(v)
		}
	}
	// Roots: thread state and frame register slots.
	for _, th := range vm.threads {
		push(th.Exception)
		pushAddr(uint32(th.RetVal))
		for _, f := range th.Frames {
			for i := 0; i < f.Method.NumRegs; i++ {
				pushAddr(vm.Mem.Read32(f.FP + uint32(8*i)))
			}
		}
	}

	// Mark transitively.
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range o.Fields {
			pushAddr(v)
		}
		if o.IsArray && o.ElemKind == 'L' {
			for i := 0; i < o.Len; i++ {
				pushAddr(binary.LittleEndian.Uint32(o.Data[i*4:]))
			}
		}
	}

	// Compact: assign new addresses in old-address order.
	live := make([]*Object, 0, len(marked))
	for o := range marked {
		live = append(live, o)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Addr < live[j].Addr })

	moves := make(map[uint32]uint32)
	cursor := kernel.DvmHeapBase
	for _, o := range live {
		if o.Addr != cursor {
			moves[o.Addr] = cursor
		}
		cursor += objFootprint(o.payloadSize())
	}

	if len(moves) == 0 && len(live) == len(vm.objects) {
		return 0
	}

	// Apply moves.
	newObjects := make(map[uint32]*Object, len(live))
	cursor = kernel.DvmHeapBase
	for _, o := range live {
		old := o.Addr
		o.Addr = cursor
		cursor += objFootprint(o.payloadSize())
		newObjects[o.Addr] = o
		vm.Mem.Write32(o.Addr, objHeaderMagic)
		vm.Mem.Write32(o.Addr+4, uint32(o.Len))
		if old != o.Addr && vm.OnGCMove != nil {
			vm.OnGCMove(old, o.Addr, o)
		}
	}
	vm.objects = newObjects
	vm.heapCursor = cursor

	rewrite := func(v uint32) (uint32, bool) {
		nv, ok := moves[v]
		return nv, ok
	}

	// Rewrite reference-holding slots.
	for _, c := range vm.classes {
		for i, v := range c.StaticData {
			if nv, ok := rewrite(v); ok {
				c.StaticData[i] = nv
			}
		}
	}
	for _, o := range vm.objects {
		for i, v := range o.Fields {
			if nv, ok := rewrite(v); ok {
				o.Fields[i] = nv
			}
		}
		if o.IsArray && o.ElemKind == 'L' {
			for i := 0; i < o.Len; i++ {
				v := binary.LittleEndian.Uint32(o.Data[i*4:])
				if nv, ok := rewrite(v); ok {
					binary.LittleEndian.PutUint32(o.Data[i*4:], nv)
				}
			}
		}
	}
	for _, th := range vm.threads {
		if nv, ok := rewrite(uint32(th.RetVal)); ok {
			th.RetVal = uint64(nv)
		}
		for _, f := range th.Frames {
			for i := 0; i < f.Method.NumRegs; i++ {
				slot := f.FP + uint32(8*i)
				if nv, ok := rewrite(vm.Mem.Read32(slot)); ok {
					vm.Mem.Write32(slot, nv)
				}
			}
		}
	}
	return len(moves)
}
