package apps_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
)

// TestSummaryParityAllAppsAllModes is the summary soundness contract: for
// every corpus app (benign + hostile) under every analysis mode, a run with
// -summaries=validated produces a byte-identical flow log and verdict versus
// -summaries=off. The unvalidated tier, which must diverge on
// hostile-sumdodge, is core's test oracle (TestStaticSummaryTierDiverges).
func TestSummaryParityAllAppsAllModes(t *testing.T) {
	for _, app := range apps.AllApps() {
		for _, mode := range allModes {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				want := outcomeOf(core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true,
				}))
				got := outcomeOf(core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true, Summaries: core.SummaryValidated,
				}))
				if got.verdict != want.verdict {
					t.Errorf("verdict %v, baseline %v", got.verdict, want.verdict)
				} else if got.log != want.log {
					t.Errorf("flow log diverged:\n--- off ---\n%s\n--- validated ---\n%s", want.log, got.log)
				}
			})
		}
	}
}

// TestSumdodgeValidationRejects pins the mutation-validation mechanics on
// the hostile app: under -summaries=validated the candidate summary for
// Java_gate is rejected at the first crossing (the zero-mutation run
// observes no dependence where the static transfer claims one), nothing is
// ever applied, and the real leak is still caught.
func TestSumdodgeValidationRejects(t *testing.T) {
	app, ok := apps.ByName("hostile-sumdodge")
	if !ok {
		t.Fatal("hostile-sumdodge missing")
	}
	r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
		Budget: testBudget, FlowLog: true, Summaries: core.SummaryValidated,
	})
	if r.Verdict() != core.VerdictLeak {
		t.Fatalf("verdict = %v, want leak", r.Verdict())
	}
	res := r.Final.Result
	if len(res.SummaryRejections) != 1 {
		t.Fatalf("rejections = %v, want exactly one", res.SummaryRejections)
	}
	rej := res.SummaryRejections[0]
	if !strings.Contains(rej.Func, "gate") || rej.Reason != "validation-mismatch" {
		t.Errorf("rejection = %+v, want the gate method with validation-mismatch", rej)
	}
	if res.SummaryApplied != 0 {
		t.Errorf("SummaryApplied = %d, want 0 (rejected before any application)", res.SummaryApplied)
	}
}

// TestSummaryTracedReduction is the payoff assertion: for the three
// summarizable corpus apps, -summaries=validated must trace at least 5x
// fewer native instructions than full tracing while staying byte-identical
// (parity is covered above; this test holds the counters).
func TestSummaryTracedReduction(t *testing.T) {
	for _, name := range []string{"summix", "sumfold", "sumfloat"} {
		name := name
		t.Run(name, func(t *testing.T) {
			app, ok := apps.ByName(name)
			if !ok {
				t.Fatalf("%s missing", name)
			}
			off := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Budget: testBudget, FlowLog: true,
			})
			val := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Budget: testBudget, FlowLog: true, Summaries: core.SummaryValidated,
			})
			ob, vb := off.Final.Result.TracedInsns, val.Final.Result.TracedInsns
			if vb == 0 || ob < 5*vb {
				t.Errorf("traced insns: off=%d validated=%d, want >=5x reduction", ob, vb)
			}
			if val.Final.Result.SummaryApplied == 0 {
				t.Error("no crossing was served by the summary")
			}
			if len(val.Final.Result.SummaryRejections) != 0 {
				t.Errorf("unexpected rejections: %v", val.Final.Result.SummaryRejections)
			}
		})
	}
}

// TestPinswapVoidsSummaries reuses the hostile-pinswap app as the summary
// eviction regression: its RegisterNatives swap retargets a bound method
// mid-run, so every synthesized summary for the library must be dropped
// (SummariesVoided counts them) and the post-swap leak still caught with a
// byte-identical flow log versus summaries off.
func TestPinswapVoidsSummaries(t *testing.T) {
	app, ok := apps.ByName("hostile-pinswap")
	if !ok {
		t.Fatal("hostile-pinswap missing")
	}
	base := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
		Budget: testBudget, FlowLog: true,
	})
	r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
		Budget: testBudget, FlowLog: true, Summaries: core.SummaryValidated,
	})
	if r.Final.Result.SummariesVoided == 0 {
		t.Error("RegisterNatives swap voided no summaries")
	}
	if got, want := outcomeOf(r), outcomeOf(base); got.verdict != want.verdict {
		t.Errorf("verdict %v, baseline %v", got.verdict, want.verdict)
	} else if got.log != want.log {
		t.Errorf("flow log diverged under summaries after the swap:\n--- off ---\n%s\n--- validated ---\n%s",
			want.log, got.log)
	}
}

// TestSummaryParityUnderRunner holds summary parity on the fork-server path
// and checks the CAS round trip: the first analysis synthesizes each
// library's summaries and stores them, the second reuses them (memory or
// disk) without re-synthesis, and both match the fresh-System baseline.
func TestSummaryParityUnderRunner(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := core.NewCachedRunner(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"summix", "sumfold", "sumfloat", "hostile-sumdodge"} {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		base := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
			Budget: testBudget, FlowLog: true,
		})
		for pass := 0; pass < 2; pass++ {
			r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Budget: testBudget, FlowLog: true, Summaries: core.SummaryValidated, Runner: runner,
			})
			if got, want := outcomeOf(r), outcomeOf(base); got.verdict != want.verdict {
				t.Errorf("%s pass %d: verdict %v, baseline %v", name, pass, got.verdict, want.verdict)
			} else if got.log != want.log {
				t.Errorf("%s pass %d: snapshot-served summary run diverged from baseline", name, pass)
			}
		}
	}
	if runner.Stats.SummarySynths == 0 {
		t.Error("no summary synthesis recorded")
	}
	if runner.Stats.SummaryReuses == 0 {
		t.Error("second passes reused no cached summaries")
	}
	// Validation verdicts are deliberately not persisted: a reused summary
	// must still be re-validated per analysis, so hostile-sumdodge's second
	// pass rejects again rather than trusting a stale acceptance.
}

// TestSummaryParityParallelAndService holds summary parity under parallel
// study workers and under the analysis service with a warm artifact store:
// every row matches a one-worker summaries-off sweep, on the uncached pass
// and on both the cold and the warm (verdict-replay) cached pass.
func TestSummaryParityParallelAndService(t *testing.T) {
	base := map[string]appOutcome{}
	seq, _ := runStudy(t, apps.StudyOptions{Budget: testBudget, FlowLog: true}, 1)
	for _, row := range seq.Rows {
		base[row.App.Name] = appOutcome{
			verdict: row.Report.Verdict(),
			log:     strings.Join(row.Report.Final.Result.LogLines, "\n"),
		}
	}
	check := func(t *testing.T, rep *apps.StudyReport, leg string) {
		t.Helper()
		for _, row := range rep.Rows {
			got := appOutcome{
				verdict: row.Report.Verdict(),
				log:     strings.Join(row.Report.Final.Result.LogLines, "\n"),
			}
			want := base[row.App.Name]
			if got.verdict != want.verdict {
				t.Errorf("%s/%s: verdict %v, baseline %v", leg, row.App.Name, got.verdict, want.verdict)
			} else if got.log != want.log {
				t.Errorf("%s/%s: flow log diverged from summaries-off baseline", leg, row.App.Name)
			}
		}
	}

	rep, _ := runStudy(t, apps.StudyOptions{
		Budget: testBudget, FlowLog: true, Summaries: core.SummaryValidated,
	}, 4)
	check(t, rep, "parallel")

	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := apps.StudyOptions{
		Budget: testBudget, FlowLog: true, Cache: store, Summaries: core.SummaryValidated,
	}
	cold, _ := runStudy(t, opts, 3)
	check(t, cold, "service-cold")
	warm, stats := runStudy(t, opts, 3)
	check(t, warm, "service-warm")
	if stats.VerdictHits == 0 {
		t.Error("warm service pass replayed no verdicts")
	}
}
