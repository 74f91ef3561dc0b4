package core_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// runAppGated is runApp with the gate explicitly on or off.
func runAppGated(t *testing.T, app *apps.App, mode core.Mode, gate bool) *core.Analyzer {
	t.Helper()
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Install(sys); err != nil {
		t.Fatalf("install %s: %v", app.Name, err)
	}
	var a *core.Analyzer
	if gate {
		a = core.NewAnalyzer(sys, mode)
	} else {
		a = core.NewAnalyzerNoGate(sys, mode)
	}
	a.Log.Enabled = true
	if err := app.Run(sys); err != nil {
		t.Fatalf("run %s under %s: %v", app.Name, mode, err)
	}
	return a
}

func leakStrings(a *core.Analyzer) string {
	s := ""
	for _, l := range a.Leaks {
		s += l.String() + "\n"
	}
	return s
}

// TestGateSoundnessFlowLogs is the tentpole acceptance check: for every
// evaluation app and every analysis mode, the flow log, the leak list, and
// the detection verdict must be byte-identical with the zero-taint fast path
// on and off. The gate may only ever skip work whose inputs are all zero.
func TestGateSoundnessFlowLogs(t *testing.T) {
	modes := []core.Mode{core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	for _, app := range apps.Registry() {
		for _, mode := range modes {
			app, mode := app, mode
			t.Run(fmt.Sprintf("%s/%s", app.Name, mode), func(t *testing.T) {
				off := runAppGated(t, app, mode, false)
				on := runAppGated(t, app, mode, true)

				if got, want := on.Log.String(), off.Log.String(); got != want {
					t.Errorf("flow log diverges with gating on:\n--- gated ---\n%s\n--- ungated ---\n%s", got, want)
				}
				if got, want := leakStrings(on), leakStrings(off); got != want {
					t.Errorf("leaks diverge with gating on:\ngated:\n%s\nungated:\n%s", got, want)
				}
				if app.ExpectTag != 0 {
					if on.Leaks.Detected(app.ExpectTag) != off.Leaks.Detected(app.ExpectTag) {
						t.Errorf("detection verdict diverges: gated=%v ungated=%v",
							on.Leaks.Detected(app.ExpectTag), off.Leaks.Detected(app.ExpectTag))
					}
				}
			})
		}
	}
}

// TestGateTable1Matrix re-derives the Table I detection matrix with gating
// enabled and checks it cell by cell against the paper's expectations — the
// same assertions as TestTable1DetectionMatrix, now guaranteed to run with
// the fast path on.
func TestGateTable1Matrix(t *testing.T) {
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			td := runAppGated(t, app, core.ModeTaintDroid, true)
			nd := runAppGated(t, app, core.ModeNDroid, true)
			if app.Case == "benign" {
				if len(td.Leaks) != 0 || len(nd.Leaks) != 0 {
					t.Fatalf("benign app reported leaks: td=%v nd=%v", td.Leaks, nd.Leaks)
				}
				return
			}
			if got := td.Leaks.Detected(app.ExpectTag); got != app.DetectedByTaintDroid {
				t.Errorf("TaintDroid detection = %v, want %v", got, app.DetectedByTaintDroid)
			}
			if !nd.Leaks.Detected(app.ExpectTag) {
				t.Errorf("NDroid missed the leak (case %s) with gating on; log:\n%s",
					app.Case, nd.Log.String())
			}
		})
	}
}

// TestGateTakesFastPath asserts the gate actually engages: the benign app
// never introduces taint, so under NDroid every translated native block must
// run bare and the latch must stay off.
func TestGateTakesFastPath(t *testing.T) {
	app, ok := apps.ByName("benign")
	if !ok {
		t.Fatal("benign app missing")
	}
	a := runAppGated(t, app, core.ModeNDroid, true)
	cpu := a.Sys.CPU
	if cpu.GateFastBlocks == 0 {
		t.Error("benign app executed no fast-path blocks")
	}
	if cpu.GateSlowBlocks != 0 {
		t.Errorf("benign app executed %d instrumented blocks, want 0", cpu.GateSlowBlocks)
	}
	if a.Sys.VM.TaintSeen() {
		t.Error("Java taint latch fired on the benign app")
	}
	if a.Live.Total() != 0 {
		t.Errorf("liveness total = %d at end of benign run, want 0", a.Live.Total())
	}

	// A leaking app must flip to the slow path at least once.
	leaky, _ := apps.ByName("case1")
	b := runAppGated(t, leaky, core.ModeNDroid, true)
	if b.Sys.CPU.GateSlowBlocks == 0 {
		t.Error("case1 never executed an instrumented block despite live taint")
	}
	if !b.Sys.VM.TaintSeen() {
		t.Error("case1 never fired the Java taint latch")
	}
}
