package core_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// runAppTrans runs an app with the DVM translation engine explicitly enabled
// or disabled, gate on or off.
func runAppTrans(t *testing.T, app *apps.App, mode core.Mode, gate, noTranslate bool) *core.Analyzer {
	t.Helper()
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	sys.VM.NoJavaTranslate = noTranslate
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

// TestJavaTranslationSoundnessFlowLogs is the acceptance check for the
// method-granular translation engine: for every evaluation app (the Table I
// replays and the four case studies), every analysis mode, and both gate
// settings, the flow log, the leak list, and the detection verdict must be
// byte-identical between the translated engine and the per-instruction
// interpreter. Translation is a pure performance transform.
func TestJavaTranslationSoundnessFlowLogs(t *testing.T) {
	modes := []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	for _, app := range apps.Registry() {
		for _, mode := range modes {
			for _, gate := range []bool{true, false} {
				app, mode, gate := app, mode, gate
				t.Run(fmt.Sprintf("%s/%s/gate=%v", app.Name, mode, gate), func(t *testing.T) {
					interp := runAppTrans(t, app, mode, gate, true)
					trans := runAppTrans(t, app, mode, gate, false)

					if got, want := trans.Log.String(), interp.Log.String(); got != want {
						t.Errorf("flow log diverges under translation:\n--- translated ---\n%s\n--- interpreted ---\n%s", got, want)
					}
					if got, want := leakStrings(trans), leakStrings(interp); got != want {
						t.Errorf("leaks diverge under translation:\ntranslated:\n%s\ninterpreted:\n%s", got, want)
					}
					if app.ExpectTag != 0 {
						if trans.Leaks.Detected(app.ExpectTag) != interp.Leaks.Detected(app.ExpectTag) {
							t.Errorf("detection verdict diverges: translated=%v interpreted=%v",
								trans.Leaks.Detected(app.ExpectTag), interp.Leaks.Detected(app.ExpectTag))
						}
					}
				})
			}
		}
	}
}

// TestJavaTranslationEngages asserts the engine actually runs: in the
// gated NDroid configuration the apps' Java frames must execute through
// compiled methods, not the interpreter, and a leaking app must record the
// clean->tainting bail or taint-variant frames.
func TestJavaTranslationEngages(t *testing.T) {
	benign, ok := apps.ByName("benign")
	if !ok {
		t.Fatal("benign app missing")
	}
	a := runAppTrans(t, benign, core.ModeNDroid, true, false)
	if a.Sys.VM.JavaTransMethods == 0 {
		t.Error("benign app compiled no methods")
	}
	if a.Sys.VM.JavaCleanFrames == 0 {
		t.Error("benign app ran no clean-variant frames under the gate")
	}
	if a.Sys.VM.JavaTaintFrames != 0 || a.Sys.VM.JavaGateBails != 0 {
		t.Errorf("benign app touched the tainting variant: %d taint frames, %d bails",
			a.Sys.VM.JavaTaintFrames, a.Sys.VM.JavaGateBails)
	}

	leaky, _ := apps.ByName("case1")
	b := runAppTrans(t, leaky, core.ModeNDroid, true, false)
	if b.Sys.VM.JavaTaintFrames == 0 && b.Sys.VM.JavaGateBails == 0 {
		t.Error("case1 never reached the tainting variant despite live taint")
	}

	// DroidScope installs a per-instruction observer, which forces the
	// interpreter: the cost model of Fig. 10 depends on it.
	d := runAppTrans(t, leaky, core.ModeDroidScope, true, false)
	if d.Sys.VM.JavaTransMethods != 0 {
		t.Errorf("DroidScope ran %d translated methods; its step function must force the interpreter",
			d.Sys.VM.JavaTransMethods)
	}
}
