package cfbench

import (
	"testing"

	"repro/internal/core"
)

// TestWorkloadsRunInAllModes smoke-tests every workload under every mode at
// a heavy scale factor.
func TestWorkloadsRunInAllModes(t *testing.T) {
	modes := []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, mode := range modes {
				score, gs, err := Measure(w, mode, 100)
				if err != nil {
					t.Fatalf("%s under %s: %v", w.Name, mode, err)
				}
				if score <= 0 {
					t.Errorf("%s under %s: nonpositive score", w.Name, mode)
				}
				// Clean CF-Bench workloads never see taint, so NDroid's
				// block dispatch must stay entirely on the fast path.
				if mode == core.ModeNDroid {
					if !w.Java && gs.FastBlocks == 0 {
						t.Errorf("%s under ndroid: no fast-path blocks (gate not engaged)", w.Name)
					}
					if gs.SlowBlocks != 0 {
						t.Errorf("%s under ndroid: %d instrumented blocks on a clean run", w.Name, gs.SlowBlocks)
					}
				}
			}
		})
	}
}

// TestFig10Shape runs a reduced Fig. 10 and checks the qualitative shape the
// paper reports: native compute loops suffer far more than Java-side rows
// and the modeled allocator, and NDroid stays well below DroidScope overall.
// The two MALLOCS claims are made on work counts (instructions through a
// taint handler vs instructions retired), which do not move with host load;
// the remaining claims compare wall-clock overheads.
func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	// The paper's Fig. 10 measures always-on instrumentation; the taint
	// gate would let clean workloads skip most of it (see BenchmarkGateOnOff
	// for that comparison), so the shape assertions use the ungated runner.
	modes := []core.Mode{core.ModeVanilla, core.ModeNDroid, core.ModeDroidScope}
	res, err := RunNoGate(modes, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Report())

	row := func(name string) Row {
		r, ok := res.RowByName(name)
		if !ok {
			t.Fatalf("missing row %s", name)
		}
		return r
	}
	get := func(name string, m core.Mode) float64 { return row(name).Overhead[m] }

	nd := core.ModeNDroid
	ds := core.ModeDroidScope
	// Native instruction-heavy rows must show clear tracer cost. (Absolute
	// magnitudes are compressed versus the paper — our baseline interpreter
	// is far slower than QEMU-translated code — see DESIGN.md §5; the
	// assertions below check the orderings the paper's Fig. 10 exhibits.)
	nativeMIPS := get("Native MIPS", nd)
	javaMIPS := get("Java MIPS", nd)
	if nativeMIPS < 1.2 {
		t.Errorf("Native MIPS overhead = %.2f, want clearly > 1 (tracer cost)", nativeMIPS)
	}
	// The modeled allocator stays near 1x (paper: 1.03x) because NDroid
	// models malloc/free instead of tracing their bodies: of the native
	// instructions a row retires under vanilla (allocator bodies included),
	// NDroid sends a far smaller share through a taint handler on MALLOCS
	// than on the traced Native MIPS loop.
	share := func(name string) float64 {
		r := row(name)
		work := r.Gate[core.ModeVanilla].NativeInsns
		if work == 0 {
			t.Fatalf("%s retired no native instructions under vanilla", name)
		}
		return float64(r.Gate[nd].Traced) / float64(work)
	}
	mipsShare, mallocShare := share("Native MIPS"), share("Native MALLOCS")
	if !(2*mallocShare < mipsShare) {
		t.Errorf("NDroid traces %.2f of MALLOCS' native work vs %.2f of Native MIPS'; want under half the share",
			mallocShare, mipsShare)
	}
	// The Java side pays TaintDroid's factor (paper: 1.0-2.2x).
	if javaMIPS > 3.0 {
		t.Errorf("Java MIPS overhead = %.2f, want small", javaMIPS)
	}
	// DroidScope pays where NDroid does not: on the modeled allocator (it
	// traces the allocator body NDroid models away)...
	if dsT, ndT := row("Native MALLOCS").Gate[ds].Traced, row("Native MALLOCS").Gate[nd].Traced; !(dsT > ndT) {
		t.Errorf("DroidScope traced %d MALLOCS instructions, NDroid %d; DroidScope should trace more", dsT, ndT)
	}
	// ...and on the Java side (per-instruction semantic reconstruction).
	if !(get("Java Score", ds) > get("Java Score", nd)) {
		t.Error("DroidScope Java-side overhead should exceed NDroid's")
	}
	// NDroid overall must undercut DroidScope overall (paper: 5.45x vs 11x+).
	ndOverall := get("Overall Score", nd)
	dsOverall := get("Overall Score", ds)
	if !(ndOverall < dsOverall) {
		t.Errorf("NDroid overall (%.2f) should be below DroidScope overall (%.2f)", ndOverall, dsOverall)
	}
}

// BenchmarkGateOnOff compares NDroid with the taint-presence gate against
// the always-instrumented configuration on clean native compute rows — the
// wall-clock win of running untainted phases on bare translated blocks.
// Setup (system build, assembly, install) happens per iteration in both
// variants; the reported gated-score/ungated-score metric is computed from
// the workloads' own timed sections, which exclude setup.
func BenchmarkGateOnOff(b *testing.B) {
	for _, name := range []string{"Native MIPS", "Native Memory Read"} {
		var w Workload
		for _, cand := range Workloads() {
			if cand.Name == name {
				w = cand
			}
		}
		for _, gated := range []bool{true, false} {
			label := "/gate"
			if !gated {
				label = "/nogate"
			}
			b.Run(w.Name+label, func(b *testing.B) {
				best := 0.0
				for i := 0; i < b.N; i++ {
					s, _, err := measure(w, core.ModeNDroid, 4, gated, false)
					if err != nil {
						b.Fatal(err)
					}
					if s > best {
						best = s
					}
				}
				b.ReportMetric(best, "ops/s")
			})
		}
	}
}

// TestWorkloadCorrectness: results must be mode-independent (instrumentation
// must not change behaviour). The disk workload leaves a verifiable file.
func TestWorkloadCorrectness(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeNDroid} {
		sys, err := core.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		w := Workloads()[12] // Native Disk Write
		if w.Name != "Native Disk Write" {
			t.Fatal("workload order changed")
		}
		if err := w.install(sys, 100); err != nil {
			t.Fatal(err)
		}
		sys.Kern.FS.WriteFile("/data/cfbench.dat", make([]byte, 8192))
		core.NewAnalyzer(sys, mode)
		if _, _, _, err := sys.VM.InvokeByName(w.entryClass, "run", nil, nil); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		content, ok := sys.Kern.FS.ReadFile("/data/cfbench.dat")
		if !ok || len(content) != 1024*(opsDisk/100) {
			t.Errorf("mode %s: file size %d, want %d", mode, len(content), 1024*(opsDisk/100))
		}
	}
}
