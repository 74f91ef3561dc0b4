// Package libc provides the emulated bionic-style C library the synthetic
// apps' native code links against. Every function in the paper's Table VI and
// Table VII has a guest address inside the libc.so / libm.so images; calls
// reach a Go implementation through a CPU address hook (the same trampoline
// mechanism the JNI function table uses).
//
// malloc/free and the memory/string core (memcpy, memset, strlen, strcpy,
// strcmp, memmove, strcat, memcmp) have real emulated-ARM bodies as their
// canonical implementations: stock execution runs them instruction by
// instruction, and NDroid's System Lib Hook Engine replaces them with taint
// models (§V-D). Each body is also reachable under a distinct "<name>.insn"
// alias that never carries a model hook, which is what the modeled-vs-traced
// ablation (DESIGN.md E13) calls.
package libc

import (
	"fmt"
	"sort"

	"repro/internal/arm"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// Impl is a host implementation of a C function: it reads AAPCS arguments
// from the CPU and leaves the return value in R0 (R0/R1 for doubles).
type Impl func(l *Libc, c *arm.CPU)

// Libc is one instance of the emulated C library bound to a task.
type Libc struct {
	Mem  *mem.Memory
	Kern *kernel.Kernel
	Task *kernel.Task

	syms      map[string]uint32
	impls     map[string]Impl
	asmBacked map[string]bool

	// malloc arena (separate from the kernel brk range; see layout notes).
	arenaNext uint32
	arenaEnd  uint32
	allocated map[uint32]uint32 // addr -> size
	freeLists map[uint32][]uint32

	// FILE bookkeeping: guest FILE* -> fd.
	files  map[uint32]int32
	nextFP uint32

	// MallocCount / FreeCount feed the CF-Bench MALLOCS workload checks.
	MallocCount uint64
	FreeCount   uint64
}

const (
	arenaBase = kernel.HeapBase + 0x0200_0000
	fileBase  = kernel.HeapBase + 0x03f0_0000
)

// New builds the library image inside m, assembling the ARM bodies at
// kernel.LibcBase and assigning every other symbol a stub slot.
func New(m *mem.Memory, k *kernel.Kernel, t *kernel.Task) (*Libc, error) {
	l := &Libc{
		Mem:       m,
		Kern:      k,
		Task:      t,
		syms:      make(map[string]uint32),
		impls:     make(map[string]Impl),
		asmBacked: make(map[string]bool),
		arenaNext: arenaBase,
		arenaEnd:  kernel.HeapLimit,
		allocated: make(map[uint32]uint32),
		freeLists: make(map[uint32][]uint32),
		files:     make(map[uint32]int32),
		nextFP:    fileBase,
	}

	// Assemble the instruction-level bodies first.
	prog, err := arm.Assemble(asmBodies, kernel.LibcBase, nil)
	if err != nil {
		return nil, fmt.Errorf("libc: assembling bodies: %w", err)
	}
	m.WriteBytes(prog.Base, prog.Code)
	for name, addr := range prog.Labels {
		l.syms[name] = addr
		l.asmBacked[name] = true
	}

	// Stub slots for Go-implemented functions without an asm body, placed
	// after the bodies. Functions with an asm body (malloc, free, and the
	// memory/string core) keep the body as their canonical symbol: stock
	// execution runs the real code and NDroid's models intercept it (§V-D).
	cursor := (prog.Base + prog.Size() + 0xff) &^ 0xff
	names := make([]string, 0, len(stdImpls))
	for name := range stdImpls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l.impls[name] = stdImpls[name]
		if l.asmBacked[name] {
			continue
		}
		l.syms[name] = cursor
		// A real BX LR sits in the slot so that, if a hook is ever removed,
		// calls degrade to no-ops instead of running off into zeroes.
		w, _ := arm.Encode(arm.Insn{Op: arm.OpBX, Cond: arm.CondAL, Rm: arm.LR, Rd: arm.RegNone, Rn: arm.RegNone})
		m.Write32(cursor, w)
		cursor += 16
	}

	libmNames := make([]string, 0, len(mathImpls))
	for name := range mathImpls {
		libmNames = append(libmNames, name)
	}
	sort.Strings(libmNames)
	mcursor := kernel.LibmBase
	for _, name := range libmNames {
		l.syms[name] = mcursor
		l.impls[name] = mathImpls[name]
		w, _ := arm.Encode(arm.Insn{Op: arm.OpBX, Cond: arm.CondAL, Rm: arm.LR, Rd: arm.RegNone, Rn: arm.RegNone})
		m.Write32(mcursor, w)
		mcursor += 16
	}

	if t != nil {
		k.AddVMA(t, kernel.VMA{Start: kernel.LibcBase, End: cursor, Perms: "r-x", Name: "/system/lib/libc.so"})
		k.AddVMA(t, kernel.VMA{Start: kernel.LibmBase, End: mcursor, Perms: "r-x", Name: "/system/lib/libm.so"})
	}
	return l, nil
}

// Install registers the default execution hooks (plain Go implementations,
// no taint models) on the CPU. Symbols with real asm bodies are left alone so
// stock execution runs them; NDroid's system-lib hook engine later installs
// model-then-execute wrappers over both kinds.
func (l *Libc) Install(c *arm.CPU) {
	for name, impl := range l.impls {
		if l.asmBacked[name] {
			continue
		}
		addr := l.syms[name]
		impl := impl
		c.Hook(addr, func(c *arm.CPU) arm.HookAction {
			impl(l, c)
			return arm.ActionReturn
		})
	}
}

// AsmBacked reports whether a symbol's canonical implementation is emulated
// guest code rather than a host stub.
func (l *Libc) AsmBacked(name string) bool { return l.asmBacked[name] }

// Sym returns the guest address of a libc/libm symbol.
func (l *Libc) Sym(name string) (uint32, bool) {
	a, ok := l.syms[name]
	return a, ok
}

// Syms returns a copy of the full symbol table (for linking app assembly and
// for the hook engines).
func (l *Libc) Syms() map[string]uint32 {
	out := make(map[string]uint32, len(l.syms))
	for k, v := range l.syms {
		out[k] = v
	}
	return out
}

// CallImpl runs the Go implementation of name against the current CPU state.
// The system-lib hook engine uses this to execute the real behaviour after
// applying a taint model.
func (l *Libc) CallImpl(name string, c *arm.CPU) error {
	impl, ok := l.impls[name]
	if !ok {
		return fmt.Errorf("libc: no implementation for %q", name)
	}
	impl(l, c)
	return nil
}

// Malloc carves n bytes from the arena (8-byte aligned, 4-byte size header).
func (l *Libc) Malloc(n uint32) uint32 {
	l.MallocCount++
	size := (n + 7) &^ 7
	if lst := l.freeLists[size]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		l.freeLists[size] = lst[:len(lst)-1]
		l.allocated[addr] = size
		return addr
	}
	if l.arenaNext+size+8 >= l.arenaEnd {
		return 0
	}
	l.Mem.Write32(l.arenaNext, size)
	addr := l.arenaNext + 8
	l.arenaNext += size + 8
	l.allocated[addr] = size
	return addr
}

// Free returns a malloc'd block to the free list.
func (l *Libc) Free(addr uint32) {
	if addr == 0 {
		return
	}
	size, ok := l.allocated[addr]
	if !ok {
		return
	}
	l.FreeCount++
	delete(l.allocated, addr)
	l.freeLists[size] = append(l.freeLists[size], addr)
}

// AllocSize reports the usable size of a malloc'd block.
func (l *Libc) AllocSize(addr uint32) (uint32, bool) {
	s, ok := l.allocated[addr]
	return s, ok
}
