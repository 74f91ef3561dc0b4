package apps_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/static"
)

func outcomeOf(r core.AppReport) appOutcome {
	return appOutcome{
		verdict: r.Verdict(),
		log:     strings.Join(r.Final.Result.LogLines, "\n"),
	}
}

// TestFusionParityAllAppsAllModes is the fusion soundness contract: for every
// corpus app (including the hostile set and the RegisterNatives re-binder)
// under every mode, a run with trace fusion produces a byte-identical flow log
// and verdict versus a run with every crossing on the unfused bridge.
func TestFusionParityAllAppsAllModes(t *testing.T) {
	for _, app := range apps.AllApps() {
		for _, mode := range allModes {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				base := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true, Fuse: core.FuseOff,
				})
				fused := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true, Fuse: core.FuseDefault,
				})
				if got, want := outcomeOf(fused), outcomeOf(base); got.verdict != want.verdict {
					t.Errorf("verdict: fused %v, unfused %v", got.verdict, want.verdict)
				} else if got.log != want.log {
					t.Errorf("flow log diverged fused vs unfused:\n--- unfused ---\n%s\n--- fused ---\n%s",
						want.log, got.log)
				}
			})
		}
	}
}

// TestFusionParityWithStaticSeeds (name kept from the static fusion seeds,
// which are gone) repeats the parity check with the static pass on: the
// pre-analysis runs before the entry point on the same System, and fused
// and unfused runs must still agree.
func TestFusionParityWithStaticSeeds(t *testing.T) {
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			base := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Budget: testBudget, FlowLog: true, Fuse: core.FuseOff, Static: static.LintOnly,
			})
			fused := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Budget: testBudget, FlowLog: true, Fuse: core.FuseDefault, Static: static.LintOnly,
			})
			if got, want := outcomeOf(fused), outcomeOf(base); got != want {
				t.Errorf("fused run with the static pass diverged: verdict %v vs %v", got.verdict, want.verdict)
			}
		})
	}
}

// TestFusionParityUnderSnapshotRunner holds fusion invisible on the
// fork-server path too: snapshot restore bumps the translation epoch, so
// every attempt starts chainless and re-fuses from scratch.
func TestFusionParityUnderSnapshotRunner(t *testing.T) {
	runner, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			base := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Budget: testBudget, FlowLog: true, Fuse: core.FuseOff,
			})
			fused := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Budget: testBudget, FlowLog: true, Fuse: core.FuseDefault, Runner: runner,
			})
			if got, want := outcomeOf(fused), outcomeOf(base); got != want {
				t.Errorf("snapshot-served fused run diverged: verdict %v vs %v", got.verdict, want.verdict)
			}
		})
	}
}

// TestRebindDeoptsFusedChain proves the rebind app exercises the machinery it
// was built for: the benign impl gets hot and fuses, RegisterNatives
// re-registration drops the chain, and the leaking impl is still caught.
func TestRebindDeoptsFusedChain(t *testing.T) {
	app, ok := apps.ByName("rebind")
	if !ok {
		t.Fatal("rebind missing")
	}
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Install(sys); err != nil {
		t.Fatal(err)
	}
	a := core.NewAnalyzer(sys, core.ModeNDroid)
	a.Budget = testBudget
	a.Log.Enabled = true
	res := a.Run(app.EntryClass, app.EntryMethod, nil, nil)
	if res.Verdict != core.VerdictLeak {
		t.Fatalf("verdict = %v, want leak\n%s", res.Verdict, strings.Join(res.LogLines, "\n"))
	}
	vm := sys.VM
	if vm.JavaFusedChains == 0 {
		t.Error("no fused chain was ever built")
	}
	if vm.JavaFusedCalls == 0 {
		t.Error("no crossing was served fused")
	}
	if vm.JavaFuseDeopts == 0 {
		t.Error("the RegisterNatives rebind did not deopt the chain")
	}
	if !a.Log.Contains("RegisterNatives ") {
		t.Error("re-registration not recorded in the flow log")
	}
	if !a.Log.Contains("SinkHandler[sendto]") {
		t.Error("post-rebind leak not caught by the native sink handler")
	}
	if n := len(sys.Kern.Net.SentTo("exfil.rebind.example")); n != 1 {
		t.Errorf("ground truth: %d sends to exfil host, want 1", n)
	}
}

// TestFusedDeoptInjectionHotChain arms the fused-deopt site on a crossing
// that is served by a hot chain (the rebind app's fifth `process` call) and
// requires the forced deopt to be byte-invisible: same verdict, same flow
// log, and the deopt counter records the drop.
func TestFusedDeoptInjectionHotChain(t *testing.T) {
	defer fault.Reset()
	app, ok := apps.ByName("rebind")
	if !ok {
		t.Fatal("rebind missing")
	}
	run := func() (rep core.AppReport, fusedCalls, deopts uint64) {
		sys, err := core.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Install(sys); err != nil {
			t.Fatal(err)
		}
		a := core.NewAnalyzer(sys, core.ModeNDroid)
		a.Budget = testBudget
		a.Log.Enabled = true
		res := a.Run(app.EntryClass, app.EntryMethod, nil, nil)
		rep = core.AppReport{Name: app.Name, Final: core.Attempt{Mode: core.ModeNDroid, Result: res}}
		return rep, sys.VM.JavaFusedCalls, sys.VM.JavaFuseDeopts
	}

	fault.Reset()
	base, baseFused, _ := run()

	// The fifth probe is the fifth crossing of `process`: the chain built at
	// the fourth is serving, so the injected corruption forces a live deopt
	// and that crossing reruns unfused — one fused dispatch fewer than the
	// clean run, with nothing else observable.
	fault.Reset()
	if err := fault.ArmNth(core.SiteFusedDeopt, fault.UnmappedAccess, 5); err != nil {
		t.Fatal(err)
	}
	injected, injFused, injDeopts := run()
	if n := fault.Fired(core.SiteFusedDeopt); n != 1 {
		t.Fatalf("site fired %d times, want 1", n)
	}
	if injDeopts == 0 {
		t.Error("injected corruption recorded no deopt")
	}
	if injFused != baseFused-1 {
		t.Errorf("fused dispatches: injected %d, baseline %d, want exactly one fewer", injFused, baseFused)
	}
	if got, want := outcomeOf(injected), outcomeOf(base); got.verdict != want.verdict {
		t.Errorf("verdict changed under injected deopt: %v vs %v", got.verdict, want.verdict)
	} else if got.log != want.log {
		t.Errorf("flow log diverged under injected deopt:\n--- base ---\n%s\n--- injected ---\n%s",
			want.log, got.log)
	}
}
