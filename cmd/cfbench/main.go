// Command cfbench reproduces the paper's Fig. 10: it runs the CF-Bench-style
// workload suite under the analysis modes and prints the per-row overhead
// table (vanilla score plus the slowdown factor of each instrumented mode).
//
// Usage:
//
//	cfbench                       # full-size run, all four modes
//	cfbench -scale 10             # quick run
//	cfbench -repeats 3            # best-of-3 per cell
//	cfbench -json BENCH_fig10.json # also write machine-readable results
//	cfbench -java-ablation        # Java rows, translation engine on vs off
//	cfbench -fuse both            # trace-fusion crossing ablation, both arms
//	cfbench -fuse on              # fused arm only (off: unfused arm only)
//	cfbench -cache both           # service cache ablation: uncached + cold/warm/sharedlib
//	cfbench -cache on             # cached arms only (off: uncached arm only)
//	cfbench -cache-dir DIR        # persist the ablation store instead of a temp dir
//	cfbench -surface both         # JNI surface-observer ablation + RASP flood leg
//	cfbench -surface on           # observed arm only (off: unobserved arm only)
//	cfbench -summaries sweep      # native taint-summary ablation (off/static/validated)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cfbench"
	"repro/internal/core"
)

func main() {
	scale := flag.Int("scale", 1, "divide workload sizes by this factor")
	repeats := flag.Int("repeats", 3, "measurements per cell (best kept)")
	jsonPath := flag.String("json", "", "write results as JSON to this file (e.g. BENCH_fig10.json)")
	javaAblation := flag.Bool("java-ablation", false, "run only the Java rows, translation engine on vs off")
	fuse := flag.String("fuse", "both", "trace-fusion ablation arms: both, on, off, or none")
	cache := flag.String("cache", "both", "service cache ablation arms: both, on, off, or none")
	cacheDir := flag.String("cache-dir", "", "artifact store directory for -cache (default: a temp dir)")
	surfaceArms := flag.String("surface", "both", "JNI surface-observer ablation arms: both, on, off, or none")
	summaries := flag.String("summaries", "sweep", "native taint-summary ablation (runs off/static/validated arms): sweep or none")
	flag.Parse()

	if *javaAblation {
		runJavaAblation(*scale, *repeats)
		return
	}

	modes := []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	res, err := cfbench.Run(modes, *scale, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.Report())
	verdicts, err := cfbench.VerdictSweep(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfbench: verdict sweep:", err)
		os.Exit(1)
	}
	res.Verdicts = verdicts
	fmt.Println("Contained corpus sweep:", res.Verdicts)
	pins, err := cfbench.PinSweep(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfbench: pin sweep:", err)
		os.Exit(1)
	}
	res.Pins = pins
	fmt.Println("Static pin precision:")
	fmt.Println(cfbench.PinReport(pins))
	// Each sweep prints its own parity mismatch; the exit status reports any.
	parityFailed := false
	if *fuse != "none" {
		withOn := *fuse == "both" || *fuse == "on"
		withOff := *fuse == "both" || *fuse == "off"
		if !withOn && !withOff {
			fmt.Fprintf(os.Stderr, "cfbench: bad -fuse value %q (both, on, off, none)\n", *fuse)
			os.Exit(2)
		}
		fs, err := cfbench.FuseSweep(0, withOn, withOff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfbench:", err)
			os.Exit(1)
		}
		res.Fuse = fs
		fmt.Println("Crossing ablation (trace fusion):")
		fmt.Println(fs.String())
		if !fs.ParityOK {
			parityFailed = true
			fmt.Fprintln(os.Stderr, "cfbench: fused/unfused parity mismatch:", fs.ParityDetail)
		}
	}
	if *cache != "none" {
		withOff := *cache == "both" || *cache == "off"
		withOn := *cache == "both" || *cache == "on"
		if !withOff && !withOn {
			fmt.Fprintf(os.Stderr, "cfbench: bad -cache value %q (both, on, off, none)\n", *cache)
			os.Exit(2)
		}
		cs, err := cfbench.CacheSweep(0, withOff, withOn, *cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfbench:", err)
			os.Exit(1)
		}
		res.Cache = cs
		fmt.Println("Cache ablation (analysis service):")
		fmt.Println(cs.String())
		if !cs.ParityOK {
			parityFailed = true
			fmt.Fprintln(os.Stderr, "cfbench: cache-regime parity mismatch:", cs.ParityDetail)
		}
	}
	if *surfaceArms != "none" {
		withOn := *surfaceArms == "both" || *surfaceArms == "on"
		withOff := *surfaceArms == "both" || *surfaceArms == "off"
		if !withOn && !withOff {
			fmt.Fprintf(os.Stderr, "cfbench: bad -surface value %q (both, on, off, none)\n", *surfaceArms)
			os.Exit(2)
		}
		ss, err := cfbench.SurfaceSweep(0, withOn, withOff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfbench:", err)
			os.Exit(1)
		}
		res.Surface = ss
		fmt.Println("JNI surface-observer ablation:")
		fmt.Println(ss.String())
		if !ss.ParityOK {
			parityFailed = true
			fmt.Fprintln(os.Stderr, "cfbench: surface observer parity mismatch:", ss.ParityDetail)
		}
	}
	if *summaries != "none" {
		if *summaries != "sweep" {
			fmt.Fprintf(os.Stderr, "cfbench: bad -summaries value %q (sweep or none)\n", *summaries)
			os.Exit(2)
		}
		sm, err := cfbench.SummarySweep(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfbench:", err)
			os.Exit(1)
		}
		res.Summary = sm
		fmt.Println("Native taint-summary ablation:")
		fmt.Println(sm.String())
		if !sm.ParityOK {
			parityFailed = true
			fmt.Fprintln(os.Stderr, "cfbench: summary ablation parity mismatch:", sm.ParityDetail)
		}
	}
	if *jsonPath != "" {
		data, err := res.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfbench: marshal:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cfbench: write:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *jsonPath)
	}
	fmt.Println("Paper reference (Fig. 10): NDroid overall 5.45x vs vanilla; DroidScope >= 11x.")
	fmt.Println("Absolute factors compress on this substrate (interpreter baseline vs QEMU-")
	fmt.Println("translated code); the orderings are the reproduced result — see EXPERIMENTS.md.")
	if parityFailed {
		os.Exit(1)
	}
}

// runJavaAblation measures every Java row under vanilla and NDroid with the
// DVM translation engine enabled versus disabled, reporting the speedup the
// method-granular translator delivers over the per-instruction interpreter.
func runJavaAblation(scale, repeats int) {
	if scale < 1 {
		scale = 1
	}
	if repeats < 1 {
		repeats = 1
	}
	best := func(f func() (float64, cfbench.GateStats, error)) (float64, cfbench.GateStats) {
		top, topGS := 0.0, cfbench.GateStats{}
		for r := 0; r < repeats; r++ {
			s, gs, err := f()
			if err != nil {
				fmt.Fprintln(os.Stderr, "cfbench:", err)
				os.Exit(1)
			}
			if s > top {
				top, topGS = s, gs
			}
		}
		return top, topGS
	}
	fmt.Printf("%-20s %-10s %15s %15s %8s\n", "Java row", "mode", "translated", "interpreted", "speedup")
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeNDroid} {
		for _, w := range cfbench.Workloads() {
			if !w.Java {
				continue
			}
			w := w
			on, gs := best(func() (float64, cfbench.GateStats, error) { return cfbench.Measure(w, mode, scale) })
			off, _ := best(func() (float64, cfbench.GateStats, error) { return cfbench.MeasureNoJavaTranslate(w, mode, scale) })
			speed := 0.0
			if off > 0 {
				speed = on / off
			}
			fmt.Printf("%-20s %-10s %15.0f %15.0f %7.2fx  (%d methods, %d clean, %d taint frames)\n",
				w.Name, mode, on, off, speed, gs.JavaTransMethods, gs.JavaCleanFrames, gs.JavaTaintFrames)
		}
	}
}
