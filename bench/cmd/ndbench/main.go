// Command ndbench runs one workload of the repository's benchmark and prints
// its metrics; the last line of standard output is the JSON result.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash bench/ndbench.sh --workload serve-fresh --seed 20 --seconds 25 --trace 0
//	bash bench/ndbench.sh --workload kernels --trace 1 --trace-out spans.jsonl
//
// Workloads: kernels, serve-fresh, serve-cold, serve-warm. --trace 1 runs a
// traced phase after an untraced one and reports per-layer metrics instead
// of end-to-end ones. The exit status is nonzero when any output check fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/bench"
)

// workDir, under the current directory, holds the serve workloads' stores
// while a run lasts; it is where bench/ndbench.sh also builds.
const workDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "kernels, serve-fresh, serve-cold or serve-warm")
		seed     = flag.Int64("seed", -1, "input seed (default: the workload's own)")
		seconds  = flag.Float64("seconds", 25, "measured phase length in seconds")
		trace    = flag.Int("trace", 0, "1: add a traced phase and report per-layer metrics")
		traceOut = flag.String("trace-out", "", "with --trace 1, write the spans here (JSON lines)")
	)
	flag.Parse()
	def, ok := bench.Workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *seed < 0 {
		*seed = def
	}
	// One process on at most two cores: the serve workloads' two clients and
	// two shard workers never get more processors than a 2-core host has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ndbench:", err)
		os.Exit(1)
	}
	rep, err := bench.Run(bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		TraceOut: *traceOut,
		WorkDir:  workDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndbench:", err)
		os.Exit(1)
	}
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ndbench:", err)
		os.Exit(1)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}
