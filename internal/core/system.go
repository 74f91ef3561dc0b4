// Package core implements NDroid, the paper's contribution: a dynamic taint
// analysis system that tracks information flows crossing the JNI boundary.
// It assembles five engines on top of the emulated Android stack:
//
//   - the Taint Engine (shadow registers, byte-granular memory taint, and an
//     indirect-reference shadow map; §V-E),
//   - the DVM Hook Engine (JNI entry/exit, object creation, field access,
//     exceptions; §V-B),
//   - the Instruction Tracer (Table V ARM/Thumb propagation; §V-C),
//   - the System Lib Hook Engine (Table VI models and Table VII sinks; §V-D),
//   - the OS-Level View Reconstructor (§V-F),
//
// with the multilevel hooking state machine (Fig. 5) gating the JNI-exit
// instrumentation.
package core

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/dvm"
	"repro/internal/kernel"
	"repro/internal/libc"
	"repro/internal/mem"
	"repro/internal/taint"
)

// System is the full emulated Android stack an Analyzer runs an app on.
type System struct {
	Mem  *mem.Memory
	CPU  *arm.CPU
	Kern *kernel.Kernel
	Task *kernel.Task
	Libc *libc.Libc
	VM   *dvm.VM

	// Taint is the system-lifetime shadow-taint map. Analyzers bind their
	// taint engine to it rather than allocating their own, so the snapshot
	// machinery can rewind it page-for-page alongside guest memory.
	Taint *taint.MemTaint
}

// NewSystem boots a fresh stack: guest memory, kernel with one app task,
// libc/libm images, CPU, and a Dalvik VM with the framework registered.
func NewSystem() (*System, error) {
	m := mem.New()
	k := kernel.New(m)
	task := k.NewTask("app_process")
	c := arm.New(m)
	c.R[arm.SP] = kernel.NativeStackTop
	// The block translation cache is the analog of QEMU's TCG translation
	// cache and is on in every mode, with the decoded-instruction cache
	// backing cold paths (Step) and translation; NDroid's *handler* cache
	// (§V-C) is a separate knob on the tracer.
	c.UseDecodeCache = true
	c.UseBlockCache = true
	c.SVC = func(c *arm.CPU, num uint32) error { return k.Syscall(task, c, num) }
	lc, err := libc.New(m, k, task)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	lc.Install(c)
	vm := dvm.New(m, c, k, task, lc)
	return &System{Mem: m, CPU: c, Kern: k, Task: task, Libc: lc, VM: vm,
		Taint: taint.NewMemTaint()}, nil
}
