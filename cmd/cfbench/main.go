// Command cfbench reproduces the paper's Fig. 10: it runs the CF-Bench-style
// workload suite under the analysis modes and prints the per-row overhead
// table (vanilla score plus the slowdown factor of each instrumented mode),
// then the ablation matrix (fusion and store arms through the
// analysis service) and the contained corpus verdict counts of its baseline
// run. It exits 1 if the matrix finds a parity break.
//
// Usage:
//
//	cfbench                       # full-size run, all four modes
//	cfbench -scale 10             # quick run
//	cfbench -repeats 3            # best-of-3 per cell
//	cfbench -json BENCH_fig10.json # also write machine-readable results
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
	flag.Parse()

	modes := []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	res, err := cfbench.Run(modes, *scale, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.Report())
	m, err := cfbench.RunMatrix(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfbench:", err)
		os.Exit(1)
	}
	res.Ablation = m
	fmt.Println("Contained corpus sweep (baseline arm, ndroid):", m.Verdicts())
	fmt.Println("Ablation matrix (every arm through the analysis service):")
	fmt.Println(m.String())
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
	// The matrix printed its own parity line; the exit status reports it.
	if !m.ParityOK {
		os.Exit(1)
	}
}
