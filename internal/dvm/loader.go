package dvm

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/kernel"
)

// asmKey addresses one assembled image: the external symbol tables are fixed
// once the framework is up, so source text plus load base determine the code.
type asmKey struct {
	source string
	base   uint32
}

// AsmCache is the cross-VM assembly cache consulted on an asmMemo miss,
// typically backed by the persistent content-addressed store: a shared native
// library already assembled under one app (or one fork-server shard, or a
// previous process) is reused under every other. Load must return a Program
// private to the caller (or immutable); a miss for any reason — including a
// corrupt entry the cache absorbed — returns false and the VM assembles.
type AsmCache interface {
	Load(source string, base uint32) (*arm.Program, bool)
	Store(source string, base uint32, prog *arm.Program)
}

// SetAsmCache wires an assembly cache into the VM. Like asmMemo, the cache is
// content-addressed warm state: it survives snapshot restores untouched.
func (vm *VM) SetAsmCache(c AsmCache) { vm.asmCache = c }

// LoadNativeLib assembles ARM/Thumb source, loads it into the app code
// region, registers it in the task's memory map (so the OS-level view
// reconstructor can attribute its addresses), and returns the program. The
// source may reference every libc/libm symbol and every JNI function by name.
//
// Assembled images are memoized per VM: under the fork-server model the same
// VM serves many installs of the same app from a snapshot-restored state, and
// the restore rewinds nextLibBase, so a repeat install resolves to an
// identical (source, base) pair and reuses the image instead of re-assembling.
func (vm *VM) LoadNativeLib(name, source string) (*arm.Program, error) {
	base := vm.nextLibBase
	if base == 0 {
		base = kernel.AppCodeBase
	}
	key := asmKey{source, base}
	prog := vm.asmMemo[key]
	if prog == nil && vm.asmCache != nil {
		if p, ok := vm.asmCache.Load(source, base); ok {
			prog = p
			vm.AsmCacheHits++
		}
	}
	if prog == nil {
		if vm.externs == nil {
			vm.externs = vm.Libc.Syms()
			for name, addr := range vm.internalAddrs {
				vm.externs[name] = addr
			}
			vm.externs["JNIEnv"] = kernel.JNIEnvBase
		}
		var err error
		prog, err = arm.Assemble(source, base, vm.externs)
		if err != nil {
			return nil, fmt.Errorf("dvm: assembling %s: %w", name, err)
		}
		vm.AsmAssembles++
		if vm.asmCache != nil {
			vm.asmCache.Store(source, base, prog)
		}
	}
	vm.memoizeAsm(key, prog)
	vm.Mem.WriteBytes(prog.Base, prog.Code)
	end := (prog.Base + prog.Size() + 0xfff) &^ 0xfff
	vm.nextLibBase = end
	if vm.Task != nil {
		vm.Kern.AddVMA(vm.Task, kernel.VMA{
			Start: prog.Base, End: end, Perms: "r-x",
			Name: "/data/app-lib/" + name,
		})
	}
	vm.nativeLibs = append(vm.nativeLibs, LoadedLib{Name: name, Prog: prog})
	return prog, nil
}

// asmMemoCap bounds the assembled-image memo. A long-running service sees an
// unbounded stream of distinct libraries; the memo only has to span the
// installs of one submission (fingerprint, ladder retries) and the libraries
// nearby submissions share, so the oldest entry goes once the cap is reached.
const asmMemoCap = 1024

// memoizeAsm records prog under key. asmOrder is a ring of the memoized
// keys; once full, asmNext names the oldest, which the new key replaces.
func (vm *VM) memoizeAsm(key asmKey, prog *arm.Program) {
	if _, ok := vm.asmMemo[key]; ok {
		return
	}
	if vm.asmMemo == nil {
		vm.asmMemo = make(map[asmKey]*arm.Program)
	}
	if len(vm.asmOrder) < asmMemoCap {
		vm.asmOrder = append(vm.asmOrder, key)
	} else {
		delete(vm.asmMemo, vm.asmOrder[vm.asmNext])
		vm.asmOrder[vm.asmNext] = key
		vm.asmNext = (vm.asmNext + 1) % asmMemoCap
	}
	vm.asmMemo[key] = prog
}

// LoadedLib records one loaded native library image.
type LoadedLib struct {
	Name string
	Prog *arm.Program
}

// NativeLibs returns the loaded native library images.
func (vm *VM) NativeLibs() []LoadedLib { return vm.nativeLibs }

// BindNative points a declared native method at a label in a loaded library.
func (vm *VM) BindNative(className, methodName string, prog *arm.Program, label string) error {
	cls, ok := vm.classes[className]
	if !ok {
		return vm.errorf("unknown class %s", className)
	}
	m, ok := cls.Method(methodName)
	if !ok {
		return vm.errorf("unknown method %s.%s", className, methodName)
	}
	if !m.IsNative() {
		return vm.errorf("%s.%s is not native", className, methodName)
	}
	addr, err := prog.Label(label)
	if err != nil {
		return err
	}
	old := m.NativeAddr
	if old != 0 && old != addr {
		// Rebinding a bound method: fused chains baked the old entry
		// address in (same invalidation as RegisterNatives).
		vm.transEpoch++
	}
	m.NativeAddr = addr
	if vm.OnNativeBind != nil {
		vm.OnNativeBind(m, old, addr, false)
	}
	return nil
}
