package apps_test

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
)

var allModes = []core.Mode{
	core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope,
}

// TestStaticCrossValidation is the reach oracle: core.Lint's reach sets are
// a sound over-approximation of the dynamic runs, so every flow-log event of
// every attempt of every corpus app, in every mode, must lie inside them.
// The corpus includes two RegisterNatives swappers (hostile-pinswap and
// hostile-smc): their post-swap native events lie outside the reach sets of
// the installed app, so they pass only because the logged RegisterNatives
// line relaxes the native checks: with that line removed, their NDroid logs
// must violate the reach sets.
func TestStaticCrossValidation(t *testing.T) {
	swappers := map[string]bool{"hostile-pinswap": true, "hostile-smc": true}
	for _, app := range apps.AllApps() {
		sr, err := core.Lint(app.Spec())
		if err != nil {
			t.Fatalf("%s: lint: %v", app.Name, err)
		}
		for _, mode := range allModes {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true,
				})
				for _, att := range rep.Chain {
					if v := sr.CrossValidate(att.Result.LogLines); len(v) != 0 {
						t.Fatalf("mode %s attempt: cross-validation violations:\n%s",
							att.Mode, strings.Join(v, "\n"))
					}
				}
				if !swappers[app.Name] || mode != core.ModeNDroid {
					return
				}
				var unrelaxed []string
				for _, line := range rep.Final.Result.LogLines {
					if !strings.HasPrefix(line, "RegisterNatives ") {
						unrelaxed = append(unrelaxed, line)
					}
				}
				if len(unrelaxed) == len(rep.Final.Result.LogLines) {
					t.Fatal("no RegisterNatives line in the swapper's flow log")
				}
				if v := sr.CrossValidate(unrelaxed); len(v) == 0 {
					t.Error("post-swap native events pass without the RegisterNatives relaxation")
				}
			})
		}
	}
}

// TestLintHostileInstallsContained: core.Lint contains an app's Install the
// way an analysis attempt does. Over the corpus, plus one Install that
// panics and one that returns an error, Lint never panics; a failing
// Install comes back as a typed core-layer fault, and an app that installs
// lints to the same result every time.
func TestLintHostileInstallsContained(t *testing.T) {
	panics := apps.Case1App().Spec()
	panics.Name = "install-panics"
	panics.Install = func(*core.System) error { panic("hostile install") }
	fails := apps.Case1App().Spec()
	fails.Name = "install-fails"
	fails.Install = func(*core.System) error { return errors.New("hostile install") }

	specs := []core.AppSpec{panics, fails}
	for _, app := range apps.AllApps() {
		specs = append(specs, app.Spec())
	}
	for _, spec := range specs {
		first, err := core.Lint(spec)
		if err != nil {
			if f, ok := err.(*fault.Fault); !ok || f.Layer != "core" || first != nil {
				t.Errorf("%s: result %v, error %#v; want only a core-layer *fault.Fault", spec.Name, first, err)
			}
			continue
		}
		if spec.Name == panics.Name || spec.Name == fails.Name {
			t.Errorf("%s: failing install linted clean: %s", spec.Name, first.Summary())
			continue
		}
		second, err := core.Lint(spec)
		if err != nil || second.Summary() != first.Summary() {
			t.Errorf("%s: second lint %v (%v), first %s", spec.Name, second, err, first.Summary())
		}
	}
}

// TestStaticPinsEveryBenignApp (name kept from the pin era) is the reach
// precision floor: on every benign app core.Lint proves the pure checksum
// helper taint-free.
func TestStaticPinsEveryBenignApp(t *testing.T) {
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			r, err := core.Lint(app.Spec())
			if err != nil {
				t.Fatal(err)
			}
			if r.TaintFreeMethods() > r.Methods {
				t.Fatalf("more taint-free methods than methods: %s", r.Summary())
			}
			want := app.EntryClass + ".checksum"
			if i := sort.SearchStrings(r.TaintFreeNames, want); i == len(r.TaintFreeNames) || r.TaintFreeNames[i] != want {
				t.Fatalf("%s not proven taint-free: %s, names %v", want, r.Summary(), r.TaintFreeNames)
			}
		})
	}
}

// TestStaticLintCorpus locks down the lint verdict over the corpus: the
// deliberate Get-without-Release in case1's scramble is flagged, and the
// properly paired fixtures stay clean.
func TestStaticLintCorpus(t *testing.T) {
	for _, app := range apps.AllApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			r, err := core.Lint(app.Spec())
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range r.Findings {
				if f.Layer != "static" || f.Kind != fault.JNIMisuse {
					t.Fatalf("finding with wrong typing: %+v", f)
				}
			}
			if app.Name == "case1" {
				// scramble: GetStringUTFChars with no release on any path.
				found := false
				for _, f := range r.Findings {
					if strings.Contains(f.Detail, "unreleased") {
						found = true
					}
				}
				if !found {
					t.Fatalf("case1's unreleased handle not flagged; findings: %v", r.Findings)
				}
			}
		})
	}
}
