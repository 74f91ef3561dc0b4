package apps_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
)

// testBudget keeps watchdog tests fast while staying far above what any
// benign app needs.
const testBudget = 1 << 21

// TestHostileVerdicts: each hostile app lands on its expected verdict with
// the fault typed correctly, the analysis process survives, and the NDroid
// attempt retains a non-empty partial flow log (the evidence gathered before
// the app blew up).
func TestHostileVerdicts(t *testing.T) {
	for _, app := range apps.HostileRegistry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget, FlowLog: true})
			if got, want := r.Verdict(), app.ExpectedVerdict(); got != want {
				t.Fatalf("verdict = %v, want %v (chain %s)", got, want, r.ChainString())
			}
			// Crash-the-analyzer apps must carry a typed fault; the surface
			// corpus (flood, reflect, SMC, pin-swap) completes with a clean
			// or leak verdict and no fault at all.
			switch r.Verdict() {
			case core.VerdictFault, core.VerdictTimeout:
				if r.Final.Result.Fault == nil {
					t.Fatalf("no fault recorded for %v verdict", r.Verdict())
				}
			default:
				if r.Final.Result.Fault != nil {
					t.Fatalf("unexpected fault %v for %v verdict", r.Final.Result.Fault, r.Verdict())
				}
			}
			// The first attempt always runs under NDroid, whose JNI-entry hook
			// logs every native call before it executes — so even an app that
			// never returns leaves a trace.
			first := r.Chain[0]
			if first.Mode != core.ModeNDroid {
				t.Fatalf("first attempt ran under %v, want ndroid", first.Mode)
			}
			if len(first.Result.LogLines) == 0 {
				t.Error("NDroid attempt has an empty partial flow log")
			}
		})
	}
}

// TestHostileSpinTimesOut pins the watchdog details: deterministic
// instruction budget, BudgetExceeded kind, no degradation (a lower mode
// would spin just the same).
func TestHostileSpinTimesOut(t *testing.T) {
	r := core.AnalyzeApp(apps.HostileSpinApp().Spec(), core.AnalyzeOptions{Budget: testBudget})
	if r.Verdict() != core.VerdictTimeout {
		t.Fatalf("verdict = %v, want timeout", r.Verdict())
	}
	f := r.Final.Result.Fault
	if f.Kind != fault.BudgetExceeded {
		t.Errorf("fault kind = %v, want budget-exceeded", f.Kind)
	}
	if len(r.Chain) != 1 || r.Degraded {
		t.Errorf("timeout should not degrade; chain = %s", r.ChainString())
	}
	if r.Final.Result.NativeInsns < testBudget {
		t.Errorf("native insns = %d, want >= budget %d", r.Final.Result.NativeInsns, testBudget)
	}
}

// TestHostileWildWalksTheLadder: an arm-layer fault degrades NDroid ->
// TaintDroid -> vanilla; the wild store faults identically at every rung, so
// the chain records all three.
func TestHostileWildWalksTheLadder(t *testing.T) {
	r := core.AnalyzeApp(apps.HostileWildApp().Spec(), core.AnalyzeOptions{Budget: testBudget, FlowLog: true})
	if r.Verdict() != core.VerdictFault {
		t.Fatalf("verdict = %v, want fault", r.Verdict())
	}
	wantModes := []core.Mode{core.ModeNDroid, core.ModeTaintDroid, core.ModeVanilla}
	if len(r.Chain) != len(wantModes) {
		t.Fatalf("chain = %s, want %d attempts", r.ChainString(), len(wantModes))
	}
	for i, att := range r.Chain {
		if att.Mode != wantModes[i] {
			t.Errorf("attempt %d mode = %v, want %v", i, att.Mode, wantModes[i])
		}
		f := att.Result.Fault
		if f == nil || f.Kind != fault.UnmappedAccess || f.Layer != "arm" {
			t.Errorf("attempt %d fault = %v, want arm unmapped-access", i, f)
		}
	}
	if !r.Degraded {
		t.Error("report not marked degraded")
	}
}

// TestHostileDexFaultsWithoutDegrading: malformed bytecode is a property of
// the guest program; the dvm-layer fault is final and typed MalformedDex.
func TestHostileDexFaultsWithoutDegrading(t *testing.T) {
	r := core.AnalyzeApp(apps.HostileDexApp().Spec(), core.AnalyzeOptions{Budget: testBudget, FlowLog: true})
	f := r.Final.Result.Fault
	if r.Verdict() != core.VerdictFault || f == nil {
		t.Fatalf("verdict = %v (fault %v), want fault", r.Verdict(), f)
	}
	if f.Kind != fault.MalformedDex || f.Layer != "dvm" {
		t.Errorf("fault = %v, want dvm malformed-dex", f)
	}
	if len(r.Chain) != 1 || r.Degraded {
		t.Errorf("dvm fault should not degrade; chain = %s", r.ChainString())
	}
}

// TestStudySurvivesHostileCorpus: one sweep over benign + hostile apps
// completes with every verdict as expected and the statistics consistent.
func TestStudySurvivesHostileCorpus(t *testing.T) {
	rep, _ := runStudy(t, apps.StudyOptions{Budget: testBudget, FlowLog: true}, 1)
	if len(rep.Rows) != len(apps.AllApps()) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(apps.AllApps()))
	}
	for _, row := range rep.Rows {
		if got, want := row.Report.Verdict(), row.App.ExpectedVerdict(); got != want {
			t.Errorf("%s: verdict = %v, want %v (chain %s)",
				row.App.Name, got, want, row.Report.ChainString())
		}
	}
	if rep.Faults != 2 || rep.Timeouts != 1 {
		t.Errorf("faults=%d timeouts=%d, want 2/1", rep.Faults, rep.Timeouts)
	}
	if rep.Degraded != 1 {
		t.Errorf("degraded=%d, want 1 (hostile-wild)", rep.Degraded)
	}
	if rep.Leaks == 0 || rep.Clean == 0 {
		t.Errorf("benign corpus outcomes missing: leaks=%d clean=%d", rep.Leaks, rep.Clean)
	}
	if rep.Attempts < len(rep.Rows)+2 {
		t.Errorf("attempts=%d does not include hostile-wild's degradation steps", rep.Attempts)
	}
}
