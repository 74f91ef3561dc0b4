package cfbench

// Ablation matrix: every speed-only mechanism with a knob (trace fusion and
// the artifact store) is one or more arms of a single list. Each arm runs
// the evaluation corpus under every analysis mode through the analysis
// service, and one parity checker holds every (app, mode) cell to the
// baseline arm's verdict, degradation chain, flow log and JNI surface map
// byte for byte. An
// arm that exists to prove a claim beyond parity (a warm store computes
// nothing) carries that claim as its Check. The contained-corpus verdict
// counts are a view of the baseline run under NDroid, so cfbench walks the
// corpus dynamically only here. cmd/cfbench exits nonzero on any break (the
// CI bench-smoke gate).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
)

// matrixArm is one configuration of the ablation matrix.
type matrixArm struct {
	Name string
	// Opts is the analysis configuration; RunMatrix sets Mode, Budget and
	// FlowLog per run.
	Opts core.AnalyzeOptions
	// Store runs the arm over the matrix's artifact store (one per mode).
	// Store arms share it in list order: the first finds it empty (cold),
	// later ones find everything earlier ones wrote.
	Store bool
	// SharedLib submits apps.SharedLibVariant of every app: the same native
	// libraries under new dex. Cells keep the base app's name and are
	// compared against it.
	SharedLib bool
	// Check holds a claim beyond parity, given one run of the arm and the
	// baseline run under the same mode.
	Check func(run, base *ArmRun) error
}

// floodApp is the RASP app whose crossing flood the observer must throttle.
const floodApp = "hostile-rasp"

// arms is the matrix, baseline first. The baseline runs the production
// defaults (fusion on, no store); every other arm changes one knob. The
// store arms run the baseline options, so the store's own cost is
// cache=cold against the baseline.
var arms = []matrixArm{
	{Name: "baseline"},
	{Name: "fuse=off", Opts: core.AnalyzeOptions{Fuse: core.FuseOff}},
	{Name: "cache=cold", Store: true},
	{Name: "cache=warm", Store: true,
		Check: func(run, _ *ArmRun) error {
			if run.Service.Computed != 0 {
				return fmt.Errorf("recomputed %d apps; every verdict should replay", run.Service.Computed)
			}
			return nil
		}},
	{Name: "cache=sharedlib", Store: true, SharedLib: true,
		Check: func(run, _ *ArmRun) error {
			if n := run.Service.Runner.AsmAssembles; n != 0 {
				return fmt.Errorf("ran the assembler %d times; shared images must replay", n)
			}
			return nil
		}},
}

// matrixModes lists the analysis modes every arm sweeps.
var matrixModes = []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}

// Cell is one app's outcome in one run: its verdict and degradation work,
// wall clock, and the counters the knobs move.
type Cell struct {
	App      string  `json:"app"`
	Verdict  string  `json:"verdict"`
	Attempts int     `json:"attempts"`
	Degraded bool    `json:"degraded,omitempty"`
	Seconds  float64 `json:"seconds"`

	Crossings   uint64 `json:"crossings,omitempty"`
	FusedChains uint64 `json:"fused_chains,omitempty"`
	FusedCalls  uint64 `json:"fused_calls,omitempty"`
	FuseDeopts  uint64 `json:"fuse_deopts,omitempty"`

	TracedInsns uint64 `json:"traced_insns,omitempty"`

	// Surface map: unique boundaries, recorded and dropped events, raw
	// boundary calls, and whether the event budget ran out.
	Boundaries int    `json:"boundaries,omitempty"`
	Events     int    `json:"events,omitempty"`
	Dropped    uint64 `json:"dropped,omitempty"`
	Calls      uint64 `json:"calls,omitempty"`
	Truncated  bool   `json:"truncated,omitempty"`
}

// ArmRun is one arm over the corpus under one mode, through a new service.
type ArmRun struct {
	Arm  string `json:"arm"`
	Mode string `json:"mode"`

	// Apps and Seconds cover responsive submissions; budget-bound ones
	// (timeout verdicts) are timed apart, so a spinning app cannot hide the
	// cost of the rest.
	Apps               int     `json:"apps"`
	Seconds            float64 `json:"seconds"`
	BudgetBoundApps    int     `json:"budget_bound_apps,omitempty"`
	BudgetBoundSeconds float64 `json:"budget_bound_seconds,omitempty"`

	Service service.Stats `json:"service"`
	Store   *cas.Stats    `json:"store,omitempty"`

	Cells []Cell `json:"cells"`
}

// cell returns the named app's cell, or nil.
func (r *ArmRun) cell(app string) *Cell {
	for i := range r.Cells {
		if r.Cells[i].App == app {
			return &r.Cells[i]
		}
	}
	return nil
}

// Matrix is the full ablation: every arm under every mode.
type Matrix struct {
	Runs []*ArmRun `json:"runs"`

	// ParityOK records the soundness check: every cell matches the baseline,
	// and every arm's Check holds.
	ParityOK     bool   `json:"parity_ok"`
	ParityDetail string `json:"parity_detail,omitempty"`
}

// find returns the run of the named arm under mode, or nil.
func (m *Matrix) find(arm string, mode core.Mode) *ArmRun {
	for _, r := range m.Runs {
		if r.Arm == arm && r.Mode == mode.String() {
			return r
		}
	}
	return nil
}

// cellOutcome is the parity unit: one app's verdict, degradation chain,
// flow log and surface map bytes under one run.
type cellOutcome struct {
	app     string
	verdict core.Verdict
	chain   string
	log     []string
	surface []byte
}

// RunMatrix runs every arm under every mode. budget 0 uses
// core.DefaultBudget. Store arms use per-mode stores in a temporary
// directory, removed on return.
func RunMatrix(budget uint64) (*Matrix, error) {
	dir, err := os.MkdirTemp("", "ndroid-cas-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := &Matrix{ParityOK: true}
	for _, mode := range matrixModes {
		var base *ArmRun
		var baseOut []cellOutcome
		for i, a := range arms {
			run, out, err := runArm(a, mode, budget, filepath.Join(dir, mode.String()))
			if err != nil {
				return nil, err
			}
			m.Runs = append(m.Runs, run)
			if i == 0 {
				base, baseOut = run, out
				continue
			}
			err = parity(baseOut, out)
			if err == nil && a.Check != nil {
				err = a.Check(run, base)
			}
			if err != nil && m.ParityOK {
				m.ParityOK = false
				m.ParityDetail = fmt.Sprintf("%s/%s: %v", a.Name, mode, err)
			}
		}
	}
	return m, nil
}

// runArm submits the corpus to a one-worker service configured by a and
// mode, one app at a time so each submission is timed alone.
func runArm(a matrixArm, mode core.Mode, budget uint64, storeDir string) (*ArmRun, []cellOutcome, error) {
	opts := a.Opts
	opts.Mode, opts.Budget, opts.FlowLog = mode, budget, true
	var store *cas.Store
	if a.Store {
		var err error
		if store, err = cas.Open(storeDir); err != nil {
			return nil, nil, err
		}
	}
	svc, err := service.New(service.Options{Cache: store, Analyze: opts})
	if err != nil {
		return nil, nil, fmt.Errorf("cfbench: boot %s/%s service: %w", a.Name, mode, err)
	}
	run := &ArmRun{Arm: a.Name, Mode: mode.String()}
	var out []cellOutcome
	for _, app := range apps.AllApps() {
		sub := app
		if a.SharedLib {
			sub = apps.SharedLibVariant(app)
		}
		start := time.Now()
		res := <-svc.Submit(sub.Spec())
		secs := time.Since(start).Round(time.Microsecond).Seconds()
		if res.Err != nil {
			svc.Close()
			return nil, nil, fmt.Errorf("cfbench: %s/%s, %s: %w", a.Name, mode, app.Name, res.Err)
		}
		rep := res.Report
		if rep.Verdict() == core.VerdictTimeout {
			run.BudgetBoundApps++
			run.BudgetBoundSeconds += secs
		} else {
			run.Apps++
			run.Seconds += secs
		}
		r := rep.Final.Result
		cell := Cell{
			App: app.Name, Verdict: rep.Verdict().String(), Attempts: len(rep.Chain), Degraded: rep.Degraded, Seconds: secs,
			Crossings: r.JNICrossings, FusedChains: r.FusedChains, FusedCalls: r.FusedCalls, FuseDeopts: r.FuseDeopts,
			TracedInsns: r.TracedInsns,
		}
		if s := r.Surface; s != nil {
			cell.Boundaries, cell.Events, cell.Dropped, cell.Calls, cell.Truncated =
				s.UniqueBoundaries, s.Events, s.Dropped, s.Calls, s.Truncated
		}
		run.Cells = append(run.Cells, cell)
		out = append(out, cellOutcome{app.Name, rep.Verdict(), rep.ChainString(), r.LogLines, r.Surface.Bytes()})
	}
	svc.Close()
	run.Service = svc.Stats()
	if store != nil {
		st := store.Stats()
		run.Store = &st
	}
	return run, out, nil
}

// parity is the matrix's one soundness check: every cell of got matches the
// baseline's verdict, chain, flow log and surface map. Both runs cover the
// corpus in the same order.
func parity(base, got []cellOutcome) error {
	if len(got) != len(base) {
		return fmt.Errorf("%d cells, baseline %d", len(got), len(base))
	}
	for i, want := range base {
		g := got[i]
		switch {
		case g.verdict != want.verdict:
			return fmt.Errorf("%s: verdict %v, baseline %v", want.app, g.verdict, want.verdict)
		case g.chain != want.chain:
			return fmt.Errorf("%s: chain %s, baseline %s", want.app, g.chain, want.chain)
		case !slices.Equal(g.log, want.log):
			return fmt.Errorf("%s: flow log diverged from the baseline", want.app)
		case !bytes.Equal(g.surface, want.surface):
			return fmt.Errorf("%s: surface map diverged from the baseline", want.app)
		}
	}
	return nil
}

// String renders one row per run, the flood headline, and the parity
// verdict.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-10s %4s %8s %8s %8s %5s %5s %9s %9s %9s %6s %7s %5s %5s\n",
		"arm", "mode", "apps", "seconds", "apps/s", "bound_s", "comp", "hits",
		"crossings", "fused", "traced", "events", "dropped", "asm", "puts")
	for _, r := range m.Runs {
		var crossings, fused, traced, dropped uint64
		var events int
		for _, c := range r.Cells {
			crossings += c.Crossings
			fused += c.FusedCalls
			traced += c.TracedInsns
			events += c.Events
			dropped += c.Dropped
		}
		var puts uint64
		if r.Store != nil {
			puts = r.Store.Puts
		}
		fmt.Fprintf(&b, "%-20s %-10s %4d %8.3f %8.1f %8.3f %5d %5d %9d %9d %9d %6d %7d %5d %5d\n",
			r.Arm, r.Mode, r.Apps, r.Seconds, float64(r.Apps)/r.Seconds, r.BudgetBoundSeconds,
			r.Service.Computed, r.Service.VerdictHits, crossings, fused, traced,
			events, dropped, r.Service.Runner.AsmAssembles, puts)
	}
	if on := m.cell("baseline", core.ModeNDroid, floodApp); on != nil {
		fmt.Fprintf(&b, "flood (%s): %d calls -> %d throttled event attempts; wall clock %.3fs\n",
			floodApp, on.Calls, uint64(on.Events)+on.Dropped, on.Seconds)
	}
	if m.ParityOK {
		b.WriteString("parity: OK (every cell matches the baseline; every arm check holds)\n")
	} else {
		b.WriteString("parity: MISMATCH — " + m.ParityDetail + "\n")
	}
	return b.String()
}

// cell returns one app's cell in the named arm's run under mode, or nil.
func (m *Matrix) cell(arm string, mode core.Mode, app string) *Cell {
	if r := m.find(arm, mode); r != nil {
		return r.cell(app)
	}
	return nil
}
