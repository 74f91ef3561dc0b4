package core_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
)

// TestNilRunnerNeverRestores: with no Runner supplied, AnalyzeApp gives every
// attempt a new Runner that boots a fresh System and is never restored — the
// reference the snapshot-parity suites compare against. Arming the restore
// site must therefore change nothing for an app that walks the whole ladder:
// the site never fires, and the chain matches the unarmed run.
func TestNilRunnerNeverRestores(t *testing.T) {
	defer fault.Reset()
	spec := apps.HostileWildApp().Spec()
	opts := core.AnalyzeOptions{Budget: 1 << 21}

	fault.Reset()
	want := core.AnalyzeApp(spec, opts)
	if !want.Degraded || len(want.Chain) < 2 {
		t.Fatalf("chain %s: want a degrading app, so several attempts run", want.ChainString())
	}

	if err := fault.Arm(core.SiteSnapshotRestore, fault.UnmappedAccess); err != nil {
		t.Fatal(err)
	}
	got := core.AnalyzeApp(spec, opts)
	if n := fault.Fired(core.SiteSnapshotRestore); n != 0 {
		t.Errorf("restore site fired %d times on the nil-Runner path, want 0", n)
	}
	if got.ChainString() != want.ChainString() {
		t.Errorf("armed chain %s, unarmed %s", got.ChainString(), want.ChainString())
	}
}

// TestHostileSpinRetiresExactBudget pins hostile-spin's watchdog stop: its
// two-instruction native self-loop runs until the default budget is passed at
// a block boundary, so exactly DefaultBudget+1 native instructions retire
// (the MOV before the loop plus DefaultBudget/2 iterations), and the verdict
// is Timeout with no degradation.
func TestHostileSpinRetiresExactBudget(t *testing.T) {
	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	rep := core.AnalyzeApp(apps.HostileSpinApp().Spec(), core.AnalyzeOptions{Runner: r})
	res := rep.Final.Result
	if res.Verdict != core.VerdictTimeout || rep.ChainString() != "ndroid:timeout" {
		t.Errorf("chain %s, want ndroid:timeout", rep.ChainString())
	}
	if res.NativeInsns != core.DefaultBudget+1 {
		t.Errorf("NativeInsns = %d, want DefaultBudget+1 = %d", res.NativeInsns, core.DefaultBudget+1)
	}
}
