package core_test

import (
	"errors"
	"reflect"
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

// TestRunnerStatsAddSumsEveryField sets every numeric RunnerStats field to a
// distinct value through reflect and checks that Add sums each one, so a
// counter added later without its line in Add fails here instead of reading
// zero in the service's totals.
func TestRunnerStatsAddSumsEveryField(t *testing.T) {
	var a, b core.RunnerStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch f := va.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
			vb.Field(i).SetInt(int64(100 * (i + 1)))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
			vb.Field(i).SetUint(uint64(100 * (i + 1)))
		default:
			t.Fatalf("RunnerStats.%s has kind %s; extend this test", va.Type().Field(i).Name, f.Kind())
		}
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Field(i)
		var got int64
		if f.Kind() == reflect.Uint64 {
			got = int64(f.Uint())
		} else {
			got = f.Int()
		}
		if want := int64(101 * (i + 1)); got != want {
			t.Errorf("after Add, RunnerStats.%s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}

// TestAnalyzeAppContainsHostileInstall: an Install that panics or returns an
// error ends as a fault verdict carrying a core-layer *fault.Fault, on a
// fresh System and on a Runner, and the Runner still serves the next app.
func TestAnalyzeAppContainsHostileInstall(t *testing.T) {
	panics := apps.Case1App().Spec()
	panics.Name = "install-panics"
	panics.Install = func(*core.System) error { panic("hostile install") }
	fails := apps.Case1App().Spec()
	fails.Name = "install-fails"
	fails.Install = func(*core.System) error { return errors.New("hostile install") }

	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []core.AppSpec{panics, fails} {
		for _, runner := range []*core.Runner{nil, r} {
			rep := core.AnalyzeApp(spec, core.AnalyzeOptions{Runner: runner})
			if f := rep.Final.Result.Fault; rep.Verdict() != core.VerdictFault || f == nil || f.Layer != "core" {
				t.Errorf("%s: verdict %v, fault %v; want a core-layer fault", spec.Name, rep.Verdict(), f)
			}
		}
	}
	if rep := core.AnalyzeApp(apps.Case1App().Spec(), core.AnalyzeOptions{Runner: r}); rep.Verdict() != core.VerdictLeak {
		t.Errorf("case1 after the hostile installs: verdict %v (chain %s), want leak", rep.Verdict(), rep.ChainString())
	}
}
