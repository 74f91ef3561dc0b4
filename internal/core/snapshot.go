package core

// System-level snapshot/restore: the fork-server primitive behind the
// boot-once execution model (ISSUE 6). Snapshot captures a warm System —
// typically right after NewSystem, at post-framework-init state — and Restore
// rewinds every layer in O(dirty pages):
//
//   - mem.Memory and taint.MemTaint rewind copy-on-write page sets; restoring
//     a guest page fires the write-notify path, so the CPU invalidates decoded
//     instructions and translated blocks on exactly the dirtied pages and
//     keeps everything else warm across attempts.
//   - arm.CPU, dvm.VM, kernel.Kernel, and libc.Libc rewind their host-side
//     scalars and tables; the VM's decode epoch is bumped (never rewound) so
//     no decode made during the discarded attempt can revalidate.
//
// Restore is itself a fault-injection site (SiteSnapshotRestore): an injected
// restore corruption surfaces as a typed InternalError, which the degradation
// ladder answers with its same-mode fresh-System retry.

import (
	"repro/internal/arm"
	"repro/internal/dvm"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/libc"
)

// SiteSnapshotRestore guards the snapshot-restore path.
const SiteSnapshotRestore = "core.snapshot.restore"

func init() {
	fault.RegisterSite(SiteSnapshotRestore, "core")
}

// Snapshot is a restorable capture of a whole System.
type Snapshot struct {
	Sys *System

	cpu  *arm.CPUSnapshot
	vm   *dvm.VMSnapshot
	kern *kernel.KernelSnapshot
	libc *libc.LibcSnapshot
}

// RestoreStats reports the work one Restore did.
type RestoreStats struct {
	GuestPages int // guest pages copied back (the dirty set)
	TaintPages int // shadow-taint pages reset
}

// Snapshot captures the System's current state as the copy-on-write baseline.
// A second call moves the baseline forward.
func (sys *System) Snapshot() *Snapshot {
	// Taint before guest memory only by convention; the layers are disjoint.
	sys.Taint.Snapshot()
	sys.Mem.Snapshot()
	return &Snapshot{
		Sys:  sys,
		cpu:  sys.CPU.Snapshot(),
		vm:   sys.VM.Snapshot(),
		kern: sys.Kern.Snapshot(),
		libc: sys.Libc.Snapshot(),
	}
}

// Restore rewinds the System to the snapshot. On an injected restore fault
// the System must be considered corrupt: the caller discards it and boots
// fresh (Runner does this on the ladder's InternalError retry).
func (s *Snapshot) Restore() (RestoreStats, error) {
	if f := fault.Hit(SiteSnapshotRestore, 0); f != nil {
		// Restore corruption is an analyzer-internal failure whatever kind was
		// armed: surface it as a typed InternalError so the degradation ladder
		// answers with its same-mode fresh-System retry.
		f.Kind = fault.InternalError
		return RestoreStats{}, f
	}
	sys := s.Sys
	var st RestoreStats
	// Guest memory first: restoring dirty pages fires write-notify, which
	// invalidates the CPU's per-page caches before the CPU scalars come back.
	st.GuestPages = sys.Mem.Restore()
	st.TaintPages = sys.Taint.Restore()
	sys.CPU.Restore(s.cpu)
	sys.VM.Restore(s.vm)
	sys.Kern.Restore(s.kern)
	sys.Libc.Restore(s.libc)
	return st, nil
}
