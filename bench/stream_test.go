package bench

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// streamKey is a stream's content identity: per item, its name, entry point,
// generated shape, and expected outcome.
func streamKey(items []Item) []string {
	var out []string
	for _, it := range items {
		k := it.Name + "|" + it.Spec.EntryClass + "|" + it.Expect.Verdict.String() + "|" + it.Expect.Leak
		if it.Gen != nil {
			k += "|" + it.Gen.Lib.Source()
		}
		out = append(out, k)
	}
	return out
}

func digests(t *testing.T, items []Item) []string {
	t.Helper()
	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, it := range items {
		fp, _, err := r.Fingerprint(it.Spec)
		if err != nil {
			t.Fatalf("%s: fingerprint: %v", it.Name, err)
		}
		out = append(out, fp.App)
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	a, b, c := NewStream(7, 60), NewStream(7, 60), NewStream(8, 60)
	if !equalStrings(streamKey(a), streamKey(b)) {
		t.Fatal("same seed gave different streams")
	}
	if !equalStrings(digests(t, a), digests(t, b)) {
		t.Fatal("same seed gave different digests")
	}
	if equalStrings(digests(t, a), digests(t, c)) {
		t.Fatal("different seeds gave identical digests")
	}
	var va, vc []string
	for i := range a {
		va = append(va, a[i].Expect.Verdict.String())
		vc = append(vc, c[i].Expect.Verdict.String())
	}
	if equalStrings(va, vc) {
		t.Fatal("different seeds gave identical expected verdicts")
	}
}

func TestStreamSharesMatchTargets(t *testing.T) {
	for _, seed := range []int64{1, 20, 99} {
		got := Shares(NewStream(seed, 2000))
		for k, want := range StreamTargets {
			if math.Abs(got[k]-want) > 0.02 {
				t.Errorf("seed %d: share %s = %.3f, want %.2f", seed, k, got[k], want)
			}
		}
	}
}

// TestStreamKeepsTwinsApart holds identical content at least minApart
// submissions apart, so the two clients rarely have one digest in flight at
// once, and gives every hostile-spin content of its own.
func TestStreamKeepsTwinsApart(t *testing.T) {
	items := NewStream(11, 2000)
	last := make(map[string]int)
	near := 0
	spins := make(map[string]bool)
	for i, it := range items {
		if j, ok := last[it.Content]; ok && i-j < minApart {
			near++
		}
		last[it.Content] = i
		if it.Corpus == "hostile-spin" {
			if spins[it.Content] {
				t.Fatalf("hostile-spin content %s submitted twice", it.Content)
			}
			spins[it.Content] = true
		}
	}
	if near > len(items)/200 {
		t.Fatalf("%d twins closer than %d", near, minApart)
	}
}

// TestStreamWorkStableAcrossSeeds pins the stratification: the total guest
// work of a stream moves little between seeds, which is what keeps the
// serve workloads' throughput steady from one seed to the next.
func TestStreamWorkStableAcrossSeeds(t *testing.T) {
	var works []float64
	for seed := int64(1); seed <= 8; seed++ {
		w := 0
		for _, it := range NewStream(seed, 2000) {
			if it.Gen != nil {
				w += it.Gen.work()
			}
		}
		works = append(works, float64(w))
	}
	lo, hi := works[0], works[0]
	for _, w := range works {
		lo, hi = math.Min(lo, w), math.Max(hi, w)
	}
	if hi/lo > 1.05 {
		t.Fatalf("stream work varies %.3fx across seeds: %v", hi/lo, works)
	}
}

// TestStreamFamiliesReachExpectedVerdicts analyzes one sample of every
// family (generated clean, generated tainted, each corpus app) under the
// service's configuration and holds it to its expectation.
func TestStreamFamiliesReachExpectedVerdicts(t *testing.T) {
	seen := make(map[string]bool)
	for _, it := range NewStream(3, 400) {
		if seen[it.Family()] {
			continue
		}
		seen[it.Family()] = true
		t.Run(it.Family(), func(t *testing.T) {
			rep := core.AnalyzeApp(it.Spec, serveAnalyze)
			if msg := resultProblem(&it, service.Result{Report: rep}); msg != "" {
				t.Fatal(msg)
			}
		})
	}
	if !seen["gen-clean"] || !seen["gen-tainted"] || !seen["corpus:hostile-spin"] {
		t.Fatalf("stream lacks a family: %v", seen)
	}
}
