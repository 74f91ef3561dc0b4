package cfbench

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// Row is one line of the Fig. 10 table.
type Row struct {
	Name     string
	Java     bool
	Score    map[core.Mode]float64   // nominal ops/second
	Overhead map[core.Mode]float64   // vanilla score / mode score
	Gate     map[core.Mode]GateStats // taint-gate activity of the best run
}

// Result is a complete Fig. 10 run.
type Result struct {
	Rows  []Row // thirteen measured rows + Native/Java/Overall scores
	Modes []core.Mode

	// Ablation carries the ablation matrix when the caller ran RunMatrix
	// alongside the benchmark (cmd/cfbench always does). The JSON form
	// also carries its contained-corpus verdict counts.
	Ablation *Matrix
}

// Run measures every workload under the given modes. scale divides the
// nominal operation counts (1 = full run; larger = quicker smoke runs).
// repeats > 1 keeps the best score per cell to damp scheduler noise.
func Run(modes []core.Mode, scale, repeats int) (*Result, error) {
	return run(modes, scale, repeats, true)
}

// RunNoGate is Run with the taint-presence gate disabled: every mode pays
// its full instrumentation cost, the configuration the paper's Fig. 10
// measures (and the one PR 1 shipped). The shape assertions about tracer
// cost are made against this variant; the gated Run is the production
// default.
func RunNoGate(modes []core.Mode, scale, repeats int) (*Result, error) {
	return run(modes, scale, repeats, false)
}

func run(modes []core.Mode, scale, repeats int, gated bool) (*Result, error) {
	if scale < 1 {
		scale = 1
	}
	if repeats < 1 {
		repeats = 1
	}
	res := &Result{Modes: modes}
	for _, w := range Workloads() {
		row := Row{
			Name:     w.Name,
			Java:     w.Java,
			Score:    make(map[core.Mode]float64),
			Overhead: make(map[core.Mode]float64),
			Gate:     make(map[core.Mode]GateStats),
		}
		for _, mode := range modes {
			best := 0.0
			for r := 0; r < repeats; r++ {
				s, gs, err := measure(w, mode, scale, gated)
				if err != nil {
					return nil, fmt.Errorf("cfbench: %s under %s: %w", w.Name, mode, err)
				}
				if s > best {
					best = s
					row.Gate[mode] = gs
				}
			}
			row.Score[mode] = best
		}
		res.Rows = append(res.Rows, row)
	}
	res.finish()
	return res, nil
}

// finish computes overheads and the three aggregate score rows (geometric
// means, matching CF-Bench's aggregate style).
func (r *Result) finish() {
	vanillaIdx := core.ModeVanilla
	for i := range r.Rows {
		for _, mode := range r.Modes {
			v := r.Rows[i].Score[vanillaIdx]
			s := r.Rows[i].Score[mode]
			if s > 0 && v > 0 {
				r.Rows[i].Overhead[mode] = v / s
			}
		}
	}

	agg := func(name string, include func(Row) bool) Row {
		row := Row{
			Name:     name,
			Score:    make(map[core.Mode]float64),
			Overhead: make(map[core.Mode]float64),
		}
		for _, mode := range r.Modes {
			logSum, n := 0.0, 0
			for _, w := range r.Rows {
				if !include(w) || w.Score[mode] <= 0 {
					continue
				}
				logSum += math.Log(w.Score[mode])
				n++
			}
			if n > 0 {
				row.Score[mode] = math.Exp(logSum / float64(n))
			}
		}
		for _, mode := range r.Modes {
			v, s := row.Score[vanillaIdx], row.Score[mode]
			if v > 0 && s > 0 {
				row.Overhead[mode] = v / s
			}
		}
		return row
	}
	measured := len(r.Rows)
	isMeasured := func(w Row) bool {
		for i := 0; i < measured; i++ {
			if r.Rows[i].Name == w.Name {
				return true
			}
		}
		return false
	}
	nativeRow := agg("Native Score", func(w Row) bool { return isMeasured(w) && !w.Java })
	javaRow := agg("Java Score", func(w Row) bool { return isMeasured(w) && w.Java })
	overallRow := agg("Overall Score", isMeasured)
	r.Rows = append(r.Rows, nativeRow, javaRow, overallRow)
}

// RowByName retrieves a row.
func (r *Result) RowByName(name string) (Row, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return Row{}, false
}

// JSON serializes the run for machine consumption (the -json flag of
// cmd/cfbench). Mode-indexed maps are re-keyed by mode name so the output is
// stable against renumbering of the Mode constants.
func (r *Result) JSON() ([]byte, error) {
	type jsonRow struct {
		Name     string               `json:"name"`
		Java     bool                 `json:"java"`
		Score    map[string]float64   `json:"score"`
		Overhead map[string]float64   `json:"overhead"`
		Gate     map[string]GateStats `json:"gate,omitempty"`
	}
	var out struct {
		Modes    []string       `json:"modes"`
		Rows     []jsonRow      `json:"rows"`
		Verdicts *VerdictCounts `json:"verdicts,omitempty"`
		Ablation *Matrix        `json:"ablation,omitempty"`
	}
	if r.Ablation != nil {
		out.Verdicts, out.Ablation = r.Ablation.Verdicts(), r.Ablation
	}
	for _, m := range r.Modes {
		out.Modes = append(out.Modes, m.String())
	}
	for _, row := range r.Rows {
		jr := jsonRow{
			Name:     row.Name,
			Java:     row.Java,
			Score:    make(map[string]float64, len(row.Score)),
			Overhead: make(map[string]float64, len(row.Overhead)),
		}
		for m, v := range row.Score {
			jr.Score[m.String()] = v
		}
		for m, v := range row.Overhead {
			jr.Overhead[m.String()] = v
		}
		for m, gs := range row.Gate {
			if gs == (GateStats{}) {
				continue
			}
			if jr.Gate == nil {
				jr.Gate = make(map[string]GateStats)
			}
			jr.Gate[m.String()] = gs
		}
		out.Rows = append(out.Rows, jr)
	}
	return json.MarshalIndent(&out, "", "  ")
}

// Report renders the Fig. 10 table: one line per row, overhead per mode.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "CF-Bench row")
	for _, m := range r.Modes {
		if m == core.ModeVanilla {
			fmt.Fprintf(&b, " %14s", "vanilla ops/s")
			continue
		}
		fmt.Fprintf(&b, " %12s", m.String()+" ovh")
	}
	fmt.Fprintln(&b)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s", row.Name)
		for _, m := range r.Modes {
			if m == core.ModeVanilla {
				fmt.Fprintf(&b, " %14.0f", row.Score[m])
				continue
			}
			fmt.Fprintf(&b, " %11.2fx", row.Overhead[m])
		}
		fmt.Fprintln(&b)
	}
	for _, m := range r.Modes {
		var total GateStats
		for _, row := range r.Rows {
			gs := row.Gate[m]
			total.Flips += gs.Flips
			total.FastBlocks += gs.FastBlocks
			total.SlowBlocks += gs.SlowBlocks
			total.JavaTransMethods += gs.JavaTransMethods
		}
		if total.Flips+total.FastBlocks+total.SlowBlocks != 0 {
			fmt.Fprintf(&b, "taint gate (%s): %d flips, %d fast blocks, %d instrumented blocks\n",
				m, total.Flips, total.FastBlocks, total.SlowBlocks)
		}
		if total.JavaTransMethods != 0 {
			fmt.Fprintf(&b, "dalvik executor (%s): %d method decodes\n", m, total.JavaTransMethods)
		}
	}
	return b.String()
}
