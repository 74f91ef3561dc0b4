// Package bench is ndbench, the repository's end-to-end benchmark. It
// generates seeded inputs, drives the analyzer only through the public
// functions of internal/{core,service,cas,dvm,dex,apps}, checks every
// output, and reports end-to-end metrics (tracing off) or, on a traced run,
// a per-layer breakdown built from spans and counters recorded by this
// package around its calls into the program.
//
// Workloads:
//
//   - kernels: the Fig. 10 CF-Bench rows plus a JNI round-trip row, each in
//     a clean and an IMEI-tainted variant, run steady-state on one System
//     per (cell, mode) under vanilla and NDroid.
//   - serve-fresh: a seeded stream of generated and corpus apps through
//     service.New with no store, as `ndroid -serve` runs by default.
//   - serve-cold: the same stream over a fresh on-disk cas store per round.
//   - serve-warm: resubmits of apps a set-up pass stored, plus
//     shared-library variants.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Workloads lists the workload names with their default seeds.
var Workloads = map[string]int64{
	"kernels":     10,
	"serve-fresh": 20,
	"serve-cold":  30,
	"serve-warm":  40,
}

// Config selects one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the measured phase length. A traced run spends half of it
	// untraced (the baseline for trace.overhead) and half traced.
	Seconds  float64
	Trace    bool
	TraceOut string // when set, a traced run writes its spans here
	// WorkDir holds the on-disk stores of serve-cold and serve-warm, in a
	// directory of each run's own. Runs leave their stores there, emptied
	// (see newStore).
	WorkDir string
	// Scale divides stream and kernel sizes (1 = full size; tests shrink).
	Scale int
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// perLayer are the traced run's metrics, named after the module they
// measure. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"runner.boots_per_service", "count"},
	{"runner.restores_per_app", "count"},
	{"runner.guest_pages_per_restore", "pages"},
	{"runner.taint_pages_per_restore", "pages"},
	{"runner.install_us", "us"},
	{"fingerprint.install_us", "us"},
	{"dex.validations_per_app", "count"},
	{"dex.check_hits_per_app", "count"},
	{"asm.assembles_per_app", "count"},
	{"asm.cache_hits_per_app", "count"},
	{"service.submit_us", "us"},
	{"service.complete_ms", "ms"},
	{"service.computed_share", "ratio"},
	{"service.verdict_hit_share", "ratio"},
	{"service.dedup_share", "ratio"},
	{"cas.gets_per_app", "count"},
	{"cas.hit_ratio", "ratio"},
	{"cas.puts_per_app", "count"},
	{"cas.corrupt", "count"},
	{"cas.store_mb", "MB"},
	{"dvm.java_insns_per_app", "count"},
	{"dvm.ns_per_insn", "ns"},
	{"dvm.translated_methods_per_app", "count"},
	{"dvm.deopts_per_app", "count"},
	{"jni.crossings_per_app", "count"},
	{"jni.fused_share", "ratio"},
	{"jni.fuse_deopts_per_app", "count"},
	{"jni.ns_per_crossing", "ns"},
	{"arm.native_insns_per_app", "count"},
	{"arm.ns_per_insn", "ns"},
	{"arm.block_hit_ratio", "ratio"},
	{"arm.gate_fast_share", "ratio"},
	{"arm.gate_flips_per_app", "count"},
	{"tracer.traced_insns_per_app", "count"},
	{"tracer.ns_per_traced_insn", "ns"},
	{"syslib.ns_per_call", "ns"},
	{"summary.applied_per_app", "count"},
	{"summary.synths_per_app", "count"},
	{"static.runs_per_app", "count"},
	{"surface.events_per_app", "count"},
	{"surface.truncated_share", "ratio"},
	{"watchdog.budget_bound_share", "ratio"},
	{"watchdog.budget_bound_ms", "ms"},
	{"go.alloc_mb_per_app", "MB"},
	{"go.gc_per_kapp", "count"},
	{"go.gc_pause_us_per_app", "us"},
	{"fig10.ndroid_overhead_x", "x"},
	{"fig10.ndroid_minsn_per_s", "Minsn/s"},
	{"fig10.vanilla_minsn_per_s", "Minsn/s"},
	{"trace.overhead", "x"},
	{"trace.unattributed_share", "ratio"},
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// Report is the outcome of one run.
type Report struct {
	Workload string
	Seed     int64
	Trace    bool
	EndToEnd []Metric // always measured (the untraced phase)
	PerLayer []Metric // traced runs only
	Notes    []string // stream shares, breakdown, per-cell tables

	Attempted int
	Failed    int
	Failures  []string
}

// phaseResult is what a workload measured in one phase: its end-to-end
// metrics (all but setup_s, which Run adds) and, when traced, its per-layer
// values keyed by metric name.
type phaseResult struct {
	endToEnd   []Metric
	throughput float64 // headline for trace.overhead
	layer      map[string]float64
	notes      []string
}

// workload is what Run drives: repeated set-up, then measured phases.
// close releases everything set-up built and leaves the workload ready to
// set up again.
type workload interface {
	setup() error
	phase(d time.Duration, tr *Tracer) (phaseResult, error)
	close()
}

// Run executes one benchmark run.
func Run(cfg Config) (*Report, error) {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("ndbench: seconds must be positive")
	}
	gate := newGate()
	var w workload
	switch cfg.Workload {
	case "kernels":
		w = newKernels(cfg, gate)
	case "serve-fresh", "serve-cold", "serve-warm":
		if cfg.WorkDir == "" {
			return nil, fmt.Errorf("ndbench: %s needs a work directory", cfg.Workload)
		}
		dir, err := os.MkdirTemp(cfg.WorkDir, "ndbench-")
		if err != nil {
			return nil, fmt.Errorf("ndbench: %w", err)
		}
		cfg.WorkDir = dir
		w = newServe(cfg, gate)
	default:
		return nil, fmt.Errorf("ndbench: unknown workload %q", cfg.Workload)
	}
	defer w.close()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from the same heap: the previous one's state is
		// released and collected outside the timed section.
		w.close()
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("ndbench: setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	rep := &Report{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace}
	total := time.Duration(cfg.Seconds * float64(time.Second))
	untraced := total
	if cfg.Trace {
		untraced = total / 2
	}
	debug.FreeOSMemory()
	base, err := w.phase(untraced, nil)
	if err != nil {
		return nil, err
	}
	rep.EndToEnd = append([]Metric{summary("setup_s", "s", setups)}, base.endToEnd...)
	rep.Notes = append(rep.Notes, base.notes...)

	if cfg.Trace {
		tr := newTracer()
		debug.FreeOSMemory()
		traced, err := w.phase(total-untraced, tr)
		if err != nil {
			return nil, err
		}
		b := tr.breakdown()
		traced.layer["trace.overhead"] = ratio(base.throughput, traced.throughput)
		traced.layer["trace.unattributed_share"] = ratio(float64(b.Unattributed), float64(b.Wall))
		for _, d := range perLayer {
			rep.PerLayer = append(rep.PerLayer, single(d.name, d.unit, traced.layer[d.name]))
		}
		rep.Notes = append(rep.Notes, traced.notes...)
		rep.Notes = append(rep.Notes, "breakdown: "+b.String())
		if cfg.TraceOut != "" {
			if err := tr.write(cfg.TraceOut); err != nil {
				return nil, fmt.Errorf("ndbench: trace: %w", err)
			}
		}
	}
	rep.Attempted, rep.Failed = gate.Counts()
	rep.Failures = gate.Failures()
	return rep, nil
}

// resetPeakRSS lowers the process's resident-set high-water mark to its
// current RSS, so the next peakRSSMB covers only what runs in between. A
// phase reads one peak per window of work and reports their mean: one
// process-wide maximum would depend on when garbage collections happened to
// fall.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return // without the reset each window reads the process-wide peak
	}
	f.WriteString("5")
	f.Close()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// Metrics are the metrics the result line carries: end-to-end on an
// untraced run, per-layer on a traced one.
func (r *Report) Metrics() []Metric {
	if r.Trace {
		return r.PerLayer
	}
	return r.EndToEnd
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// Write prints the human-readable report followed by the one-line JSON
// result, which is always the last line.
func (r *Report) Write(out io.Writer) error {
	fmt.Fprintf(out, "ndbench %s seed=%d trace=%t\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(out, "env: go=%s nproc=%d GOMAXPROCS=%d commit=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit())
	for _, n := range r.Notes {
		fmt.Fprintln(out, n)
	}
	fmt.Fprintf(out, "%-34s %-8s %14s %14s %14s %8s\n", "metric", "unit", "value", "q1", "q3", "n")
	for _, m := range append(append([]Metric(nil), r.EndToEnd...), r.PerLayer...) {
		fmt.Fprintf(out, "%-34s %-8s %14.6g %14.6g %14.6g %8d\n", m.Name, m.Unit, m.Value, m.Q1, m.Q3, m.N)
	}
	fmt.Fprintf(out, "fail_ratio %.6g (%d of %d checks)\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintln(out, "FAIL:", f)
	}
	line := resultLine{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]resultValue)}
	for _, m := range r.Metrics() {
		line.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sortedKeys returns m's keys in order, for stable report output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
