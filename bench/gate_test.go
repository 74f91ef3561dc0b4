package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// analyzed returns the first generated item of the wanted taint and its
// result, computed the way a service shard computes it.
func analyzed(t *testing.T, tainted bool) (Item, service.Result) {
	t.Helper()
	for _, it := range NewStream(5, 40) {
		if it.Gen != nil && it.Gen.Tainted == tainted {
			rep := core.AnalyzeApp(it.Spec, serveAnalyze)
			return it, service.Result{Name: it.Name, Digest: "digest-" + it.Name, Report: rep, Source: "computed"}
		}
	}
	t.Fatal("stream has no such generated app")
	return Item{}, service.Result{}
}

func TestGatePassesTrueExpectations(t *testing.T) {
	g := newGate()
	for _, tainted := range []bool{false, true} {
		it, res := analyzed(t, tainted)
		if !g.CheckResult(&it, res) {
			t.Fatalf("tainted=%t: %v", tainted, g.Failures())
		}
	}
	if a, f := g.Counts(); a != 2 || f != 0 {
		t.Fatalf("attempted %d failed %d, want 2 and 0", a, f)
	}
}

// TestGateTripsOnDoctoredExpectation doctors each part of an expectation
// and the parity record in turn; every one must count as a failure.
func TestGateTripsOnDoctoredExpectation(t *testing.T) {
	leakItem, leakRes := analyzed(t, true)
	cleanItem, cleanRes := analyzed(t, false)

	wrongVerdict := leakItem
	wrongVerdict.Expect.Verdict = core.VerdictClean
	wrongPayload := leakItem
	wrongPayload.Expect.Leak = leakItem.Expect.Leak + "0"
	missedLeak := cleanItem
	missedLeak.Expect = Expect{Verdict: core.VerdictLeak, Leak: "15"}

	cases := []struct {
		name string
		it   Item
		res  service.Result
	}{
		{"verdict", wrongVerdict, leakRes},
		{"payload", wrongPayload, leakRes},
		{"missed leak", missedLeak, cleanRes},
	}
	for _, c := range cases {
		g := newGate()
		if g.CheckResult(&c.it, c.res) {
			t.Errorf("%s: doctored expectation passed", c.name)
		}
		if _, f := g.Counts(); f != 1 {
			t.Errorf("%s: failed = %d, want 1", c.name, f)
		}
	}

	// Parity: the same digest answered with another flow log.
	g := newGate()
	g.CheckResult(&leakItem, leakRes)
	other := leakRes
	other.Report.Final.Result.LogLines = append(append([]string(nil), leakRes.Report.Final.Result.LogLines...), "extra line")
	if g.CheckResult(&leakItem, other) {
		t.Error("flow-log mismatch under one digest passed")
	}

	// A kernel-style check.
	g = newGate()
	if g.Check(false, func() string { return "doctored" }) {
		t.Error("failed Check reported a pass")
	}
	if _, f := g.Counts(); f != 1 || g.Failures()[0] != "doctored" {
		t.Errorf("Check failure not recorded: %v", g.Failures())
	}
}
