package apps_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/arm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/static"
)

var allModes = []core.Mode{
	core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope,
}

// TestStaticPinFlowLogParity (name kept from the retired pin level) holds
// the static pass invisible: for every corpus app and every mode, running
// with static=lint must produce a byte-identical verdict and flow log to
// running without the pre-analysis.
func TestStaticPinFlowLogParity(t *testing.T) {
	for _, app := range apps.AllApps() {
		for _, mode := range allModes {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				base := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true,
				})
				lint := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true, Static: static.LintOnly,
				})
				if base.Verdict() != lint.Verdict() {
					t.Fatalf("verdict changed under static=lint: %v vs %v", base.Verdict(), lint.Verdict())
				}
				b := strings.Join(base.Final.Result.LogLines, "\n")
				l := strings.Join(lint.Final.Result.LogLines, "\n")
				if b != l {
					t.Fatalf("flow log changed under static=lint:\n--- off ---\n%s\n--- lint ---\n%s", b, l)
				}
			})
		}
	}
}

// TestStaticCrossValidation asserts the pre-analysis is a sound
// over-approximation of the dynamic runs: every flow-log event of every
// corpus app, in every mode, must lie inside the static reach sets. The
// corpus includes two RegisterNatives swappers (hostile-pinswap and
// hostile-smc): their post-swap native events lie outside the reach sets
// computed before the swap, so they pass only because the logged
// RegisterNatives line relaxes the native checks: with that line removed,
// their NDroid logs must violate the reach sets.
func TestStaticCrossValidation(t *testing.T) {
	swappers := map[string]bool{"hostile-pinswap": true, "hostile-smc": true}
	for _, app := range apps.AllApps() {
		for _, mode := range allModes {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true, Static: static.LintOnly,
				})
				for _, att := range rep.Chain {
					if len(att.Result.StaticViolations) != 0 {
						t.Fatalf("mode %s attempt: cross-validation violations:\n%s",
							att.Mode, strings.Join(att.Result.StaticViolations, "\n"))
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
				if v := rep.Final.Result.Static.CrossValidate(unrelaxed); len(v) == 0 {
					t.Error("post-swap native events pass without the RegisterNatives relaxation")
				}
			})
		}
	}
}

// TestStaticPinsEveryBenignApp (name kept from the pin era) is the reach
// precision floor: on every benign app the pre-analysis proves the pure
// checksum helper taint-free.
func TestStaticPinsEveryBenignApp(t *testing.T) {
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			sys, err := core.NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Install(sys); err != nil {
				t.Fatal(err)
			}
			r := static.Analyze(sys.VM, app.EntryClass, app.EntryMethod)
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

// TestStaticPinReseedOnDegradation (name kept from the pin era): the static
// pass is run per System, so a degradation retry's fresh System carries a
// static result of its own. An injected arm-layer fault forces ndroid ->
// taintdroid; every attempt must carry an equal, nonempty taint-free count.
func TestStaticPinReseedOnDegradation(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	if err := fault.Arm(arm.SiteDispatch, fault.UnmappedAccess); err != nil {
		t.Fatal(err)
	}
	rep := core.AnalyzeApp(apps.Case1App().Spec(), core.AnalyzeOptions{
		Budget: testBudget, FlowLog: true, Static: static.LintOnly,
	})
	if !rep.Degraded || len(rep.Chain) < 2 {
		t.Fatalf("expected a degradation chain, got %s", rep.ChainString())
	}
	for i, att := range rep.Chain {
		if att.Result.Static == nil {
			t.Fatalf("attempt %d (%s) has no static result", i, att.Mode)
		}
		if att.Result.Static.TaintFreeMethods() == 0 {
			t.Fatalf("attempt %d (%s) proved nothing taint-free: %s", i, att.Mode, att.Result.Static.Summary())
		}
		if want := rep.Chain[0].Result.Static.TaintFreeMethods(); att.Result.Static.TaintFreeMethods() != want {
			t.Fatalf("attempt %d taint-free count %d != first attempt %d (analysis not deterministic per System)",
				i, att.Result.Static.TaintFreeMethods(), want)
		}
	}
}

// TestStaticLintCorpus locks down the lint verdict over the corpus: the
// deliberate Get-without-Release in case1's scramble is flagged, and the
// properly paired fixtures stay clean.
func TestStaticLintCorpus(t *testing.T) {
	for _, app := range apps.AllApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			sys, err := core.NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Install(sys); err != nil {
				t.Fatal(err)
			}
			r := static.Analyze(sys.VM, app.EntryClass, app.EntryMethod)
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
