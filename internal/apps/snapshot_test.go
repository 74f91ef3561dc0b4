package apps_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/static"
)

func logOf(r core.AppReport) string {
	return strings.Join(r.Final.Result.LogLines, "\n")
}

// TestSnapshotParity is the fork-server soundness gate (same discipline as
// the gate and static parity suites): for every app in the registry —
// benign and hostile — and every analysis mode, an attempt served from a
// snapshot-restored System must produce the same verdict, the same
// degradation chain, and a byte-identical flow log as a fresh-NewSystem run.
// Each mode reuses one Runner across the whole corpus, so later apps run on a
// System that has been dirtied and restored many times.
func TestSnapshotParity(t *testing.T) {
	modes := []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			runner, err := core.NewRunner()
			if err != nil {
				t.Fatal(err)
			}
			for _, app := range apps.AllApps() {
				fresh := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true})
				snap := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
					Mode: mode, Budget: testBudget, FlowLog: true, Runner: runner})

				if fresh.Verdict() != snap.Verdict() {
					t.Errorf("%s: verdict fresh=%v snapshot=%v", app.Name, fresh.Verdict(), snap.Verdict())
				}
				if fresh.ChainString() != snap.ChainString() {
					t.Errorf("%s: chain fresh=[%s] snapshot=[%s]", app.Name, fresh.ChainString(), snap.ChainString())
				}
				fl, sl := logOf(fresh), logOf(snap)
				if fl != sl {
					line := firstDiffLine(fl, sl)
					t.Errorf("%s: flow log diverged at %q", app.Name, line)
				}
			}
			if runner.Stats.Resets == 0 {
				t.Error("runner served no resets")
			}
		})
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return al[i] + " vs " + bl[i]
		}
	}
	return "length mismatch"
}

// TestSnapshotParityWithPins (name kept from the pin era) is static-reuse
// parity at lint: the Runner serves a repeat install of the same dex its
// static result from the digest cache and must still match the fresh path,
// which re-runs static.Analyze every attempt, byte for byte.
func TestSnapshotParityWithPins(t *testing.T) {
	runner, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	app, ok := apps.ByName("case1")
	if !ok {
		t.Fatal("case1 missing")
	}
	opts := core.AnalyzeOptions{Budget: testBudget, FlowLog: true, Static: static.LintOnly}
	fresh := core.AnalyzeApp(app.Spec(), opts)

	optsSnap := opts
	optsSnap.Runner = runner
	first := core.AnalyzeApp(app.Spec(), optsSnap)
	second := core.AnalyzeApp(app.Spec(), optsSnap)

	for i, r := range []core.AppReport{first, second} {
		if r.Verdict() != fresh.Verdict() {
			t.Errorf("run %d: verdict %v, fresh %v", i, r.Verdict(), fresh.Verdict())
		}
		if logOf(r) != logOf(fresh) {
			t.Errorf("run %d: flow log diverged from fresh lint run", i)
		}
		if len(r.Final.Result.StaticViolations) != 0 {
			t.Errorf("run %d: static violations %v", i, r.Final.Result.StaticViolations)
		}
	}
	if got, want := second.Final.Result.Static.Summary(), fresh.Final.Result.Static.Summary(); got != want {
		t.Errorf("cached static result %q, fresh %q", got, want)
	}

	if runner.Stats.StaticRuns != 1 {
		t.Errorf("StaticRuns = %d, want 1 (second install should hit the digest cache)", runner.Stats.StaticRuns)
	}
	if runner.Stats.StaticReuses != 1 {
		t.Errorf("StaticReuses = %d, want 1", runner.Stats.StaticReuses)
	}
}

// TestSnapshotResetCost checks the performance contract behind the fork
// server: a reset rewinds only the pages the attempt dirtied, which must be
// far fewer than the pages a warm boot maps.
func TestSnapshotResetCost(t *testing.T) {
	runner, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	app, ok := apps.ByName("case1")
	if !ok {
		t.Fatal("case1 missing")
	}
	opts := core.AnalyzeOptions{Budget: testBudget, Runner: runner}
	core.AnalyzeApp(app.Spec(), opts)
	core.AnalyzeApp(app.Spec(), opts) // second attempt restores the first's dirt
	total := runner.System().Mem.MappedPages()
	if runner.Stats.Resets < 2 {
		t.Fatalf("resets = %d, want >= 2", runner.Stats.Resets)
	}
	perReset := runner.Stats.GuestPagesReset / runner.Stats.Resets
	if perReset >= total {
		t.Errorf("reset copies %d pages per reset, not less than the %d mapped", perReset, total)
	}
	if runner.Stats.Boots != 1 {
		t.Errorf("boots = %d, want 1", runner.Stats.Boots)
	}
}

// TestRunStudyWorkerDeterminism checks the parallel sweep: three service
// workers produce the same per-app verdicts and flow logs as one, with rows
// in corpus order.
func TestRunStudyWorkerDeterminism(t *testing.T) {
	seq, _ := runStudy(t, apps.StudyOptions{Budget: testBudget, FlowLog: true}, 1)
	par, parStats := runStudy(t, apps.StudyOptions{Budget: testBudget, FlowLog: true}, 3)

	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		s, p := seq.Rows[i], par.Rows[i]
		if s.App.Name != p.App.Name {
			t.Fatalf("row %d: order differs: %s vs %s", i, s.App.Name, p.App.Name)
		}
		if s.Report.Verdict() != p.Report.Verdict() {
			t.Errorf("%s: verdict %v vs %v", s.App.Name, s.Report.Verdict(), p.Report.Verdict())
		}
		if logOf(s.Report) != logOf(p.Report) {
			t.Errorf("%s: 3-worker flow log diverged from 1-worker", s.App.Name)
		}
	}
	if parStats.Runner.Resets == 0 {
		t.Error("3-worker sweep served no resets")
	}
}
