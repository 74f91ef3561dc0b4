package cfbench

import (
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	testMatrixOnce sync.Once
	testMatrix     *Matrix
	testMatrixErr  error
)

// runTestMatrix runs the whole matrix once per test binary under a tight
// budget and hands every test the same result.
func runTestMatrix(t *testing.T) *Matrix {
	t.Helper()
	testMatrixOnce.Do(func() { testMatrix, testMatrixErr = RunMatrix(1 << 19) })
	if testMatrixErr != nil {
		t.Fatal(testMatrixErr)
	}
	return testMatrix
}

// TestAblationMatrix checks the matrix as a whole: parity must hold across
// every arm, and each knob's arms must move the counters they exist to move.
// Work counts only; no wall-clock floor. The store arms are checked by
// TestCacheSweep and TestCacheSweepSingleArm.
func TestAblationMatrix(t *testing.T) {
	m := runTestMatrix(t)
	if !m.ParityOK {
		t.Fatalf("parity mismatch: %s", m.ParityDetail)
	}
	if len(m.Runs) != len(arms)*len(matrixModes) {
		t.Fatalf("%d runs, want %d arms x %d modes", len(m.Runs), len(arms), len(matrixModes))
	}
	nd := core.ModeNDroid
	// The tight budget must still let every app but hostile-spin finish, or
	// the counters below would describe truncated runs.
	if r := m.find("baseline", nd); r.BudgetBoundApps != 1 || r.cell("hostile-spin").Verdict != "timeout" {
		t.Fatalf("baseline/ndroid: %d budget-bound apps, want only hostile-spin", r.BudgetBoundApps)
	}

	t.Run("surface", func(t *testing.T) {
		on := m.cell("baseline", nd, floodApp)
		if on.Calls < 24576 || !on.Truncated {
			t.Fatalf("flood: %d calls, truncated %v; want the full flood, truncated", on.Calls, on.Truncated)
		}
		if throttled := uint64(on.Events) + on.Dropped; throttled > 64 {
			t.Errorf("flood: %d throttled event attempts over %d calls", throttled, on.Calls)
		}
	})
}

// TestCacheSweep checks the matrix's store arms under every mode: the cold
// arm fills the store with one verdict per app and nothing else, and the
// warm arm replays every verdict without computing. Parity of both against
// the uncached baseline is the matrix's.
func TestCacheSweep(t *testing.T) {
	m := runTestMatrix(t)
	if !m.ParityOK {
		t.Fatalf("parity mismatch: %s", m.ParityDetail)
	}
	for _, mode := range matrixModes {
		cold, warm := m.find("cache=cold", mode), m.find("cache=warm", mode)
		if cold == nil || warm == nil {
			t.Fatalf("%s: missing a cache arm", mode)
		}
		n := len(cold.Cells)
		if cold.Service.Computed != n || cold.Store.Puts != uint64(n) {
			t.Errorf("cache=cold/%s computed %d of %d apps with %d puts; want one verdict put per app",
				mode, cold.Service.Computed, n, cold.Store.Puts)
		}
		if warm.Service.Computed != 0 || warm.Service.VerdictHits != n {
			t.Errorf("cache=warm/%s computed=%d verdictHits=%d, want all %d replayed",
				mode, warm.Service.Computed, warm.Service.VerdictHits, n)
		}
	}
}

// TestCacheSweepSingleArm checks the uncached shape: the baseline arm runs
// without a store, so it reports throughput, no store traffic, and no
// verdict replays.
func TestCacheSweepSingleArm(t *testing.T) {
	m := runTestMatrix(t)
	for _, mode := range matrixModes {
		r := m.find("baseline", mode)
		if r == nil {
			t.Fatalf("%s: missing the baseline arm", mode)
		}
		if r.Apps == 0 || r.Seconds <= 0 {
			t.Errorf("baseline/%s reports no throughput (%d apps in %vs)", mode, r.Apps, r.Seconds)
		}
		if r.Store != nil || r.Service.VerdictHits != 0 {
			t.Errorf("baseline/%s reports store traffic (%d verdict hits)", mode, r.Service.VerdictHits)
		}
	}
}

// TestParityCheckerFailsClosed feeds the one parity checker doctored
// outcomes: a verdict, chain, flow-log or surface-map change and a missing
// cell must each be reported.
func TestParityCheckerFailsClosed(t *testing.T) {
	base := []cellOutcome{
		{"case1", core.VerdictLeak, "ndroid:leak", []string{"a", "b"}, []byte(`{"calls":1}`)},
		{"benign", core.VerdictClean, "ndroid:clean", []string{"x"}, []byte(`{"calls":2}`)},
	}
	clone := func() []cellOutcome { return append([]cellOutcome(nil), base...) }
	if err := parity(base, clone()); err != nil {
		t.Fatalf("identical outcomes reported: %v", err)
	}
	for name, got := range map[string]func() []cellOutcome{
		"verdict": func() []cellOutcome { g := clone(); g[0].verdict = core.VerdictClean; return g },
		"log":     func() []cellOutcome { g := clone(); g[0].log = []string{"a", "c"}; return g },
		"chain": func() []cellOutcome {
			g := clone()
			g[1].chain = "ndroid:fault -> taintdroid:clean"
			return g
		},
		"surface": func() []cellOutcome { g := clone(); g[1].surface = []byte(`{"calls":3}`); return g },
		"missing": func() []cellOutcome { return clone()[:1] },
	} {
		if err := parity(base, got()); err == nil {
			t.Errorf("%s: parity break went unreported", name)
		}
	}
}
