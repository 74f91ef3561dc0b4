package apps_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/static"
)

// runStudy sweeps the corpus through apps.RunStudy, failing the test on a
// submission error.
func runStudy(t *testing.T, opts apps.StudyOptions, workers int) (*apps.StudyReport, service.Stats) {
	t.Helper()
	rep, st, err := apps.RunStudy(opts, workers)
	if err != nil {
		t.Fatal(err)
	}
	return rep, st
}

func rowOutcome(row apps.StudyRow) appOutcome {
	return appOutcome{
		verdict: row.Report.Verdict(),
		log:     strings.Join(row.Report.Final.Result.LogLines, "\n"),
	}
}

// TestServiceParity is the service-mode isolation proof: the full corpus
// (benign + hostile), swept under every analysis mode, must produce
// byte-identical flow logs, verdicts, chains, and tallies whether it runs
// through a service with no store, a cold-cache service, or a warm-cache
// service that answers everything from verdict records.
func TestServiceParity(t *testing.T) {
	modes := []core.Mode{core.ModeNDroid, core.ModeTaintDroid, core.ModeVanilla, core.ModeDroidScope}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			opts := apps.StudyOptions{Mode: mode, Budget: testBudget, FlowLog: true}
			base, _ := runStudy(t, opts, 2)

			store, err := cas.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cached := opts
			cached.Cache = store
			cold, coldStats := runStudy(t, cached, 3)
			warm, warmStats := runStudy(t, cached, 3)

			for name, rep := range map[string]*apps.StudyReport{"cold": cold, "warm": warm} {
				if len(rep.Rows) != len(base.Rows) {
					t.Fatalf("%s: %d rows, baseline %d", name, len(rep.Rows), len(base.Rows))
				}
				for i, row := range rep.Rows {
					bRow := base.Rows[i]
					if row.App.Name != bRow.App.Name {
						t.Fatalf("%s: row %d is %s, baseline %s", name, i, row.App.Name, bRow.App.Name)
					}
					got, want := rowOutcome(row), rowOutcome(bRow)
					if got.verdict != want.verdict {
						t.Errorf("%s: %s verdict %v, baseline %v", name, row.App.Name, got.verdict, want.verdict)
					}
					if got.log != want.log {
						t.Errorf("%s: %s flow log diverged from the baseline", name, row.App.Name)
					}
					if row.Report.ChainString() != bRow.Report.ChainString() {
						t.Errorf("%s: %s chain %s, baseline %s", name,
							row.App.Name, row.Report.ChainString(), bRow.Report.ChainString())
					}
					if row.Report.Degraded != bRow.Report.Degraded {
						t.Errorf("%s: %s degraded=%t, baseline %t", name,
							row.App.Name, row.Report.Degraded, bRow.Report.Degraded)
					}
				}
				if rep.Clean != base.Clean || rep.Leaks != base.Leaks ||
					rep.Faults != base.Faults || rep.Timeouts != base.Timeouts ||
					rep.Degraded != base.Degraded || rep.Attempts != base.Attempts {
					t.Errorf("%s tallies clean=%d leak=%d fault=%d timeout=%d degraded=%d attempts=%d, baseline clean=%d leak=%d fault=%d timeout=%d degraded=%d attempts=%d",
						name, rep.Clean, rep.Leaks, rep.Faults, rep.Timeouts, rep.Degraded, rep.Attempts,
						base.Clean, base.Leaks, base.Faults, base.Timeouts, base.Degraded, base.Attempts)
				}
			}

			if coldStats.Computed != len(base.Rows) {
				t.Errorf("cold sweep computed %d of %d apps", coldStats.Computed, len(base.Rows))
			}
			if warmStats.Computed != 0 || warmStats.VerdictHits != len(base.Rows) {
				t.Errorf("warm sweep computed=%d verdictHits=%d, want 0/%d",
					warmStats.Computed, warmStats.VerdictHits, len(base.Rows))
			}
		})
	}
}

// TestSharedLibVariantReusesAssembledImages: an app that shares its native
// libraries with an already-analyzed app (but ships different dex) must be
// served every assembled image from the store — zero assembler runs — while
// all dex- and app-scoped artifacts are recomputed.
func TestSharedLibVariantReusesAssembledImages(t *testing.T) {
	base, ok := apps.ByName("case1")
	if !ok {
		t.Fatal("case1 missing")
	}
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	cold, coldStats := runStudy(t, apps.StudyOptions{
		Budget: testBudget, FlowLog: true, Static: static.LintOnly,
		Cache: store, Apps: []*apps.App{base}}, 1)
	if coldStats.Runner.AsmAssembles == 0 {
		t.Fatal("cold run assembled nothing; the ablation has no baseline")
	}

	variant := apps.SharedLibVariant(base)
	rep, st := runStudy(t, apps.StudyOptions{
		Budget: testBudget, FlowLog: true, Static: static.LintOnly,
		Cache: store, Apps: []*apps.App{variant}}, 1)

	if st.Runner.AsmAssembles != 0 {
		t.Errorf("shared-lib variant ran the assembler %d times, want 0", st.Runner.AsmAssembles)
	}
	if st.Runner.AsmCacheHits == 0 {
		t.Error("shared-lib variant never hit the assembled-image store")
	}
	if st.Runner.StaticDiskHits != 0 {
		t.Error("variant resolved a static result for a different app digest")
	}
	if st.Runner.StaticRuns == 0 {
		t.Error("variant never ran its own static analysis")
	}
	if got, want := rep.Rows[0].Report.Verdict(), cold.Rows[0].Report.Verdict(); got != want {
		t.Errorf("variant verdict %v, base %v — padding class changed behavior", got, want)
	}
}
