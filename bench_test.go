// Package repro's root benchmark harness regenerates every table and figure
// of the paper's evaluation (see DESIGN.md §3 for the experiment index):
//
//	Fig. 2 / §III   — BenchmarkFig2CategoryDistribution, BenchmarkSec3*
//	Table I / §IV   — BenchmarkTable1DetectionMatrix
//	Figs. 6–9 / §VI — BenchmarkCaseStudy*
//	Fig. 10 / §VI-E — BenchmarkFig10 (per row × mode; inverse-score = overhead)
//	Table V         — BenchmarkTable5TracerDispatch
//	Table VI        — BenchmarkTable6ModeledVsTraced (ablation E13)
//	Fig. 5          — BenchmarkMultilevelHookingOnOff (ablation E15)
//	§V-C cache      — BenchmarkDecodeCacheOnOff (ablation E17)
//	ARM dispatch    — BenchmarkNativeSpin (budget-bound chained blocks)
//	§V-E granularity— BenchmarkTaintGranularity (ablation, DESIGN.md §4.4)
//
// Run: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/arm"
	"repro/internal/cfbench"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dex"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/taint"
)

// ---------------------------------------------------------------------------
// Fig. 10: CF-Bench rows under every mode. The per-mode ns/op of the same
// row gives the overhead factor the paper plots.
// ---------------------------------------------------------------------------

func BenchmarkFig10(b *testing.B) {
	modes := []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	for _, w := range cfbench.Workloads() {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/%s", sanitize(w.Name), mode), func(b *testing.B) {
				run, err := w.NewRunner(mode, 4)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			out = append(out, '_')
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// Table I: the detection matrix (one full TaintDroid+NDroid sweep per op).
// ---------------------------------------------------------------------------

func BenchmarkTable1DetectionMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range apps.Registry() {
			for _, mode := range []core.Mode{core.ModeTaintDroid, core.ModeNDroid} {
				sys, err := core.NewSystem()
				if err != nil {
					b.Fatal(err)
				}
				if err := app.Install(sys); err != nil {
					b.Fatal(err)
				}
				a := core.NewAnalyzer(sys, mode)
				if err := app.Run(sys); err != nil {
					b.Fatal(err)
				}
				want := mode == core.ModeNDroid || app.DetectedByTaintDroid
				if app.ExpectTag != 0 && a.Leaks.Detected(app.ExpectTag) != want {
					b.Fatalf("%s under %s: detection mismatch", app.Name, mode)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// §VI case studies (Figs. 6–9): one analyzed execution per op.
// ---------------------------------------------------------------------------

func benchCaseStudy(b *testing.B, name string) {
	app, ok := apps.ByName(name)
	if !ok {
		b.Fatalf("no app %s", name)
	}
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem()
		if err != nil {
			b.Fatal(err)
		}
		if err := app.Install(sys); err != nil {
			b.Fatal(err)
		}
		a := core.NewAnalyzer(sys, core.ModeNDroid)
		if err := app.Run(sys); err != nil {
			b.Fatal(err)
		}
		if !a.Leaks.Detected(app.ExpectTag) {
			b.Fatal("leak not detected")
		}
	}
}

func BenchmarkCaseStudyQQPhoneBook(b *testing.B) { benchCaseStudy(b, "qqphonebook") }
func BenchmarkCaseStudyEPhone(b *testing.B)      { benchCaseStudy(b, "ephone") }
func BenchmarkCaseStudyPoCCase2(b *testing.B)    { benchCaseStudy(b, "poc-case2") }
func BenchmarkCaseStudyPoCCase3(b *testing.B)    { benchCaseStudy(b, "poc-case3") }

// ---------------------------------------------------------------------------
// §III / Fig. 2: the market study at 1/20th scale per op (the full-size run
// is cmd/marketstudy; proportions are identical).
// ---------------------------------------------------------------------------

func BenchmarkFig2CategoryDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := corpus.Analyze(corpus.Scaled(20))
		if s.CategoryDist["Game"] == 0 {
			b.Fatal("no game apps")
		}
	}
}

func BenchmarkSec3TypeINoLibs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := corpus.Analyze(corpus.Scaled(20))
		if s.TypeINoLibs == 0 || s.TypeINoLibsAdMob == 0 {
			b.Fatal("no lib-less type I apps")
		}
	}
}

func BenchmarkSec3LibraryDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := corpus.Analyze(corpus.Scaled(20))
		if len(s.TopLibs(10)) == 0 {
			b.Fatal("no libraries")
		}
	}
}

func BenchmarkSec3TypeII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := corpus.Analyze(corpus.Scaled(20))
		if s.TypeII == 0 || s.TypeIIWithLoader == 0 {
			b.Fatal("no type II apps")
		}
	}
}

func BenchmarkSec3TypeIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := corpus.Analyze(corpus.Scaled(20))
		if s.TypeIII == 0 {
			b.Fatal("no type III apps")
		}
	}
}

// ---------------------------------------------------------------------------
// Table V: instruction-tracer dispatch cost over a mixed-format taint loop.
// Reported ns/op divided by insnsPerLoop approximates per-instruction cost.
// ---------------------------------------------------------------------------

func BenchmarkTable5TracerDispatch(b *testing.B) {
	m := mem.New()
	cpu := arm.New(m)
	cpu.UseDecodeCache = true
	cpu.R[arm.SP] = 0x90000
	eng := core.NewTaintEngine(cpu)
	tr := core.NewTracer(eng)
	cpu.Tracer = tr
	prog := arm.MustAssemble(`
	MOV R2, #100
loop:
	ADD R0, R0, R1      ; binary reg
	ADD R0, R0, #3      ; binary imm
	MOV R3, R0          ; mov reg
	MVN R4, R3          ; unary
	STR R0, [SP, #-8]   ; store
	LDR R5, [SP, #-8]   ; load
	PUSH {R4, R5}
	POP {R4, R5}
	SUB R2, R2, #1
	CMP R2, #0
	BNE loop
	HLT
`, 0x8000, nil)
	m.WriteBytes(prog.Base, prog.Code)
	cpu.RegTaint[1] = taint.IMEI
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Halted = false
		cpu.SetThumbPC(0x8000)
		if err := cpu.Run(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table VI ablation (E13): the modeled memcpy versus the instruction-traced
// memcpy.insn body — identical taints, different cost.
// ---------------------------------------------------------------------------

func benchMemcpyVariant(b *testing.B, symbol string) {
	sys, err := core.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	a := core.NewAnalyzer(sys, core.ModeNDroid)
	a.Tracer.InRange = nil // trace libc too, so .insn runs under the tracer
	const src, dst, n = 0x700000, 0x701000, 512
	sys.Mem.WriteBytes(src, make([]byte, n))
	a.Engine.Mem.SetRange(src, n/2, taint.SMS)
	addr, ok := sys.Libc.Sym(symbol)
	if !ok {
		b.Fatalf("no symbol %s", symbol)
	}
	cpu := sys.CPU
	pad := kernel.ReturnPadBase + 0x2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.R[0], cpu.R[1], cpu.R[2] = dst, src, n
		cpu.R[arm.LR] = pad
		cpu.SetThumbPC(addr)
		if err := cpu.RunUntil(pad, 1<<22); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := a.Engine.Mem.GetRange(dst, n/2); got != taint.SMS {
		b.Fatalf("taint mismatch: %v", got)
	}
}

func BenchmarkTable6ModeledVsTraced(b *testing.B) {
	b.Run("modeled_memcpy", func(b *testing.B) { benchMemcpyVariant(b, "memcpy") })
	b.Run("traced_memcpy.insn", func(b *testing.B) { benchMemcpyVariant(b, "memcpy.insn") })
}

// ---------------------------------------------------------------------------
// Fig. 5 ablation (E15): with multilevel hooking, dvmInterpret is only
// instrumented on native-originated chains; the baseline it replaces hooks
// dvmInterpret on *every* invocation ("the overhead will be high if we hook
// these two functions whenever they are called", §V-B). The workload is
// invoke-heavy Java (recursive fib) plus one JNI crossing.
// ---------------------------------------------------------------------------

func benchMultilevel(b *testing.B, hookAll bool) {
	app, _ := apps.ByName("poc-case3")
	sys, err := core.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Install(sys); err != nil {
		b.Fatal(err)
	}
	// Invoke-heavy Java driver.
	fib := dex.NewClass("Lcom/bench/Fib;")
	fib.Method("fib", "II", dex.AccStatic, 3).
		Const(0, 2).
		If(3, dex.Lt, 0, "base").
		BinLit(dex.Sub, 1, 3, 1).
		InvokeStatic("Lcom/bench/Fib;", "fib", "II", 1).
		MoveResult(1).
		BinLit(dex.Sub, 2, 3, 2).
		InvokeStatic("Lcom/bench/Fib;", "fib", "II", 2).
		MoveResult(2).
		Bin(dex.Add, 0, 1, 2).
		Return(0).
		Label("base").
		Return(3).
		Done()
	sys.VM.RegisterClass(fib.Build())

	core.NewAnalyzer(sys, core.ModeNDroid)
	sys.VM.InterpretHookAll = hookAll
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := sys.VM.InvokeByName("Lcom/bench/Fib;", "fib", []uint32{12}, nil); err != nil {
			b.Fatal(err)
		}
		if err := app.Run(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultilevelHookingOnOff(b *testing.B) {
	b.Run("gated", func(b *testing.B) { benchMultilevel(b, false) })
	b.Run("hook-always", func(b *testing.B) { benchMultilevel(b, true) })
}

// ---------------------------------------------------------------------------
// §V-C ablation (E17): translation caching, three ways — no caching at all,
// the per-instruction decode cache (NDroid's hot-instruction cache), and the
// basic-block translation engine (the TCG analog, DESIGN.md §4 ablation 3).
// Cache hit/miss counters are reported as metrics.
// ---------------------------------------------------------------------------

func benchDecodeCache(b *testing.B, decodeCache, blockCache, gate bool) {
	m := mem.New()
	cpu := arm.New(m)
	cpu.UseDecodeCache = decodeCache
	cpu.UseBlockCache = blockCache
	if gate {
		// The gate only matters when a tracer is bound (otherwise there is
		// no instrumented variant to skip): attach the real Table V tracer
		// and a liveness aggregate with zero taint, so every block runs its
		// bare variant.
		cpu.Tracer = core.NewTracer(core.NewTaintEngine(cpu))
		cpu.AttachLiveness(taint.NewLiveness())
		cpu.UseTaintGate = true
	}
	prog := arm.MustAssemble(`
	MOV R0, #0
	MOV R2, #200
loop:
	ADD R0, R0, R2
	EOR R0, R0, R2
	SUB R2, R2, #1
	CMP R2, #0
	BNE loop
	HLT
`, 0x8000, nil)
	m.WriteBytes(prog.Base, prog.Code)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Halted = false
		cpu.SetThumbPC(0x8000)
		if err := cpu.Run(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if decodeCache && !blockCache {
		b.ReportMetric(float64(cpu.CacheHits)/float64(b.N), "insn-hits/op")
		b.ReportMetric(float64(cpu.CacheMisses)/float64(b.N), "insn-misses/op")
	}
	if blockCache {
		b.ReportMetric(float64(cpu.BlockHits)/float64(b.N), "block-hits/op")
		b.ReportMetric(float64(cpu.BlockMisses)/float64(b.N), "block-misses/op")
	}
	if gate {
		b.ReportMetric(float64(cpu.GateFlips)/float64(b.N), "gate-flips/op")
		b.ReportMetric(float64(cpu.GateFastBlocks)/float64(b.N), "fast-blocks/op")
		b.ReportMetric(float64(cpu.GateSlowBlocks)/float64(b.N), "slow-blocks/op")
	}
}

func BenchmarkDecodeCacheOnOff(b *testing.B) {
	b.Run("uncached", func(b *testing.B) { benchDecodeCache(b, false, false, false) })
	b.Run("insn-cache", func(b *testing.B) { benchDecodeCache(b, true, false, false) })
	b.Run("block-cache", func(b *testing.B) { benchDecodeCache(b, true, true, false) })
	b.Run("block-cache+gate", func(b *testing.B) { benchDecodeCache(b, true, true, true) })
}

// BenchmarkNativeSpin runs hostile-spin — a two-instruction native self-loop
// that only the watchdog budget stops — through core.AnalyzeApp on one
// Runner, the path every service submission takes. Nearly all of its time is
// chained ARM block dispatch, so ns/insn is the engine's per-instruction cost
// on the budget-bound tail; insns/op must stay DefaultBudget+1.
func BenchmarkNativeSpin(b *testing.B) {
	r, err := core.NewRunner()
	if err != nil {
		b.Fatal(err)
	}
	spec := apps.HostileSpinApp().Spec()
	var insns uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.AnalyzeApp(spec, core.AnalyzeOptions{Runner: r})
		if rep.Verdict() != core.VerdictTimeout {
			b.Fatalf("verdict %s, want timeout", rep.Verdict())
		}
		insns += rep.Final.Result.NativeInsns
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insns), "ns/insn")
	b.ReportMetric(float64(insns)/float64(b.N), "insns/op")
}

// ---------------------------------------------------------------------------
// Taint-granularity ablation (DESIGN.md §4.4): byte vs word shadow maps.
// ---------------------------------------------------------------------------

func BenchmarkTaintGranularity(b *testing.B) {
	b.Run("byte", func(b *testing.B) {
		mt := taint.NewMemTaint()
		for i := 0; i < b.N; i++ {
			addr := uint32(i%4096) * 16
			mt.SetRange(addr, 16, taint.IMEI)
			if mt.GetRange(addr, 16) == 0 {
				b.Fatal("lost taint")
			}
			mt.ClearRange(addr, 16)
		}
	})
	b.Run("word", func(b *testing.B) {
		wt := taint.NewWordTaint()
		for i := 0; i < b.N; i++ {
			addr := uint32(i%4096) * 16
			for off := uint32(0); off < 16; off += 4 {
				wt.Add(addr+off, taint.IMEI)
			}
			if wt.Get(addr) == 0 {
				b.Fatal("lost taint")
			}
			for off := uint32(0); off < 16; off += 4 {
				wt.Set(addr+off, 0)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Supporting micro-benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkJNIRoundTrip measures one Java->native->Java crossing under
// NDroid (SourcePolicy build + apply + return-taint override).
func BenchmarkJNIRoundTrip(b *testing.B) {
	app, _ := apps.ByName("case1")
	sys, err := core.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Install(sys); err != nil {
		b.Fatal(err)
	}
	core.NewAnalyzer(sys, core.ModeNDroid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.Run(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJNIBoundary isolates one Java->native->Java round trip under
// NDroid with the taint-presence gate on. The clean row crosses the boundary
// with zero live taint anywhere (marshalling walks skipped, native blocks run
// bare); the tainted row carries IMEI taint through the same machinery. Their
// ratio is the boundary cost the gate removes. clean-nogate is the
// always-instrumented configuration for reference. Every row reuses the
// analyzer's per-method JNI-entry binding after the warm runs.
func BenchmarkJNIBoundary(b *testing.B) {
	bench := func(appName string, gate bool) func(b *testing.B) {
		return func(b *testing.B) {
			app, ok := apps.ByName(appName)
			if !ok {
				b.Fatalf("no app %s", appName)
			}
			sys, err := core.NewSystem()
			if err != nil {
				b.Fatal(err)
			}
			if err := app.Install(sys); err != nil {
				b.Fatal(err)
			}
			if gate {
				core.NewAnalyzer(sys, core.ModeNDroid)
			} else {
				core.NewAnalyzerNoGate(sys, core.ModeNDroid)
			}
			// Warm runs: bind the native method and translate its blocks,
			// so the rows measure the steady-state crossing.
			for i := 0; i < 8; i++ {
				if err := app.Run(sys); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := app.Run(sys); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("clean", bench("benign", true))
	b.Run("clean-nogate", bench("benign", false))
	b.Run("tainted", bench("case1", true))
}

// BenchmarkGCCompaction measures a mark-compact cycle over a populated heap
// with the taint engine's move subscription attached.
func BenchmarkGCCompaction(b *testing.B) {
	sys, err := core.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	a := core.NewAnalyzer(sys, core.ModeNDroid)
	var refs []uint32
	for i := 0; i < 500; i++ {
		o := sys.VM.NewString("live-object")
		refs = append(refs, sys.VM.AddGlobalRef(o))
	}
	_ = a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh garbage each round keeps the collector moving survivors.
		for j := 0; j < 100; j++ {
			sys.VM.NewString("garbage")
		}
		sys.VM.RunGC()
	}
	b.StopTimer()
	if sys.VM.DecodeRef(refs[0]) == nil {
		b.Fatal("refs broken")
	}
}
