package cfbench

// Native taint-summary ablation (internal/summary): sweep the evaluation
// corpus across every analysis mode with auto-generated summaries off,
// static (unvalidated), and validated, recording traced-instruction
// counters, per-cell application/rejection counts, and wall clock. The
// validated arm must agree byte for byte with the off arm on every flow log
// and verdict; the static arm must too, except on the one hostile app built
// to defeat it (hostile-sumdodge), where divergence is REQUIRED — if the
// static arm matches there, the exhibit is dead and the sweep fails. The
// reduction leg asserts the headline claim: the summarizable corpus apps
// execute >= 5x fewer traced native instructions under validated summaries.

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
)

// summaryExhibits are the corpus apps whose hot native function is
// summarizable; they carry the >= 5x traced-instruction reduction claim.
var summaryExhibits = []string{"summix", "sumfold", "sumfloat"}

// summaryDivergent is the hostile app whose static-tier summary is wrong by
// construction (input-value-dependent taint transfer).
const summaryDivergent = "hostile-sumdodge"

// SummaryCell is one (app, mode) cell of the summary ablation.
type SummaryCell struct {
	App  string `json:"app"`
	Mode string `json:"mode"`

	TracedOff       uint64 `json:"traced_off"`
	TracedStatic    uint64 `json:"traced_static"`
	TracedValidated uint64 `json:"traced_validated"`

	// Applied / Rejected count summary activity on the validated arm.
	Applied  uint64 `json:"applied,omitempty"`
	Rejected int    `json:"rejected,omitempty"`

	VerdictOff       string `json:"verdict_off"`
	VerdictStatic    string `json:"verdict_static"`
	VerdictValidated string `json:"verdict_validated"`
}

// SummaryReduction is one exhibit row of the reduction table: full tracing
// vs validated summaries under NDroid.
type SummaryReduction struct {
	App             string  `json:"app"`
	TracedFull      uint64  `json:"traced_full"`
	TracedSummaries uint64  `json:"traced_summaries"`
	Ratio           float64 `json:"ratio"`
}

// SummarySweepResult is the full summary ablation.
type SummarySweepResult struct {
	Cells []SummaryCell `json:"cells"`

	OffSeconds       float64 `json:"off_seconds"`
	StaticSeconds    float64 `json:"static_seconds"`
	ValidatedSeconds float64 `json:"validated_seconds"`

	Reductions []SummaryReduction `json:"reductions"`

	// ParityOK records the soundness check: validated == off everywhere,
	// static == off everywhere except the divergent hostile exhibit (which
	// must actually diverge), and every exhibit meets the 5x reduction bar.
	ParityOK     bool   `json:"parity_ok"`
	ParityDetail string `json:"parity_detail,omitempty"`
}

func (r *SummarySweepResult) fail(format string, args ...interface{}) {
	if r.ParityOK {
		r.ParityOK = false
		r.ParityDetail = fmt.Sprintf(format, args...)
	}
}

// SummarySweep runs the three-arm summary ablation over apps x modes.
// budget 0 uses core.DefaultBudget.
func SummarySweep(budget uint64) (*SummarySweepResult, error) {
	res := &SummarySweepResult{ParityOK: true}
	type outcome struct {
		verdict core.Verdict
		log     string
		traced  uint64
	}
	run := func(app *apps.App, mode core.Mode, sm core.SummaryMode) (core.AppReport, outcome, float64) {
		start := time.Now()
		rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
			Mode:      mode,
			Budget:    budget,
			FlowLog:   true,
			Summaries: sm,
		})
		return rep, outcome{rep.Verdict(), joinLog(rep), rep.Final.Result.TracedInsns},
			time.Since(start).Seconds()
	}
	for _, mode := range sweepModes() {
		for _, app := range apps.AllApps() {
			cell := SummaryCell{App: app.Name, Mode: mode.String()}

			_, off, secs := run(app, mode, core.SummaryOff)
			res.OffSeconds += secs
			_, st, secs := run(app, mode, core.SummaryStatic)
			res.StaticSeconds += secs
			vrep, val, secs := run(app, mode, core.SummaryValidated)
			res.ValidatedSeconds += secs

			cell.TracedOff, cell.TracedStatic, cell.TracedValidated = off.traced, st.traced, val.traced
			cell.Applied = vrep.Final.Result.SummaryApplied
			cell.Rejected = len(vrep.Final.Result.SummaryRejections)
			cell.VerdictOff = off.verdict.String()
			cell.VerdictStatic = st.verdict.String()
			cell.VerdictValidated = val.verdict.String()
			res.Cells = append(res.Cells, cell)

			if val.verdict != off.verdict {
				res.fail("%s/%s: verdict validated=%v off=%v", mode, app.Name, val.verdict, off.verdict)
			} else if val.log != off.log {
				res.fail("%s/%s: validated flow log diverged from off", mode, app.Name)
			}
			if app.Name == summaryDivergent && mode == core.ModeNDroid {
				// The value-dependent gate must defeat the unvalidated tier.
				if st.log == off.log {
					res.fail("%s/%s: static arm failed to diverge (hostile exhibit dead)", mode, app.Name)
				}
				if cell.Rejected == 0 {
					res.fail("%s/%s: validation rejected nothing", mode, app.Name)
				}
			} else if st.verdict != off.verdict {
				res.fail("%s/%s: verdict static=%v off=%v", mode, app.Name, st.verdict, off.verdict)
			} else if st.log != off.log {
				res.fail("%s/%s: static flow log diverged from off", mode, app.Name)
			}

			if mode == core.ModeNDroid {
				for _, ex := range summaryExhibits {
					if app.Name != ex {
						continue
					}
					red := SummaryReduction{App: ex, TracedFull: off.traced, TracedSummaries: val.traced}
					if val.traced > 0 {
						red.Ratio = float64(off.traced) / float64(val.traced)
					}
					res.Reductions = append(res.Reductions, red)
					if val.traced == 0 || off.traced < 5*val.traced {
						res.fail("%s: traced %d full vs %d summarized, below the 5x bar",
							ex, off.traced, val.traced)
					}
					if vrep.Final.Result.SummaryApplied == 0 {
						res.fail("%s: no crossing was served by a summary", ex)
					}
				}
			}
		}
	}
	return res, nil
}

// String renders the ablation as a per-cell table plus the reduction rows.
func (r *SummarySweepResult) String() string {
	s := fmt.Sprintf("%-18s %-12s %10s %10s %10s %8s %4s %8s %8s %8s\n",
		"app", "mode", "tr(off)", "tr(stat)", "tr(val)", "applied", "rej",
		"v(off)", "v(stat)", "v(val)")
	for _, c := range r.Cells {
		s += fmt.Sprintf("%-18s %-12s %10d %10d %10d %8d %4d %8s %8s %8s\n",
			c.App, c.Mode, c.TracedOff, c.TracedStatic, c.TracedValidated,
			c.Applied, c.Rejected, c.VerdictOff, c.VerdictStatic, c.VerdictValidated)
	}
	for _, red := range r.Reductions {
		s += fmt.Sprintf("reduction (%s): %d traced full vs %d under validated summaries (%.1fx)\n",
			red.App, red.TracedFull, red.TracedSummaries, red.Ratio)
	}
	s += fmt.Sprintf("sweep wall clock: off %.3fs, static %.3fs, validated %.3fs\n",
		r.OffSeconds, r.StaticSeconds, r.ValidatedSeconds)
	if r.ParityOK {
		s += "parity: OK (validated byte-identical to off; static diverges only on the hostile exhibit)\n"
	} else {
		s += "parity: MISMATCH — " + r.ParityDetail + "\n"
	}
	return s
}
