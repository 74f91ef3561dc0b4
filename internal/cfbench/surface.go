package cfbench

// JNI surface-observer ablation (internal/surface): sweep the evaluation
// corpus across every analysis mode with the observer on (throttled, the
// production default) and off, recording per-cell surface counters and the
// wall-clock cost of observation. The two arms must agree byte for byte on
// every flow log and verdict — the observer is a derived artifact and may
// never perturb the analysis. A dedicated flood leg measures the RASP
// hostile app throttled vs unthrottled, the number the EXPERIMENTS
// flood-overhead table reports.

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
)

// SurfaceCell is one (app, mode) cell of the observer ablation: the surface
// counters from the observed arm plus both arms' verdicts.
type SurfaceCell struct {
	App  string `json:"app"`
	Mode string `json:"mode"`

	Boundaries int    `json:"boundaries"`
	Events     int    `json:"events"`
	Dropped    uint64 `json:"dropped,omitempty"`
	Calls      uint64 `json:"calls"`
	Truncated  bool   `json:"truncated,omitempty"`

	VerdictOn  string `json:"verdict_on"`
	VerdictOff string `json:"verdict_off"`
}

// SurfaceFlood is the flood-resistance leg: the RASP hostile app under
// NDroid with the observer throttled, unthrottled, and detached. Attempts
// are events the observer tried to record (recorded + dropped) — the cost a
// per-call event stream would pay.
type SurfaceFlood struct {
	App string `json:"app"`

	ThrottledSeconds   float64 `json:"throttled_seconds"`
	UnthrottledSeconds float64 `json:"unthrottled_seconds"`
	OffSeconds         float64 `json:"off_seconds"`

	Calls               uint64 `json:"calls"`
	ThrottledAttempts   uint64 `json:"throttled_attempts"`
	UnthrottledAttempts uint64 `json:"unthrottled_attempts"`
	ThrottledEvents     int    `json:"throttled_events"`
	UnthrottledEvents   int    `json:"unthrottled_events"`
}

// SurfaceSweepResult is the full observer ablation.
type SurfaceSweepResult struct {
	Cells []SurfaceCell `json:"cells"`

	OnSeconds  float64 `json:"on_seconds"`
	OffSeconds float64 `json:"off_seconds"`

	Flood *SurfaceFlood `json:"flood,omitempty"`

	// ParityOK records the soundness check: byte-identical flow logs and
	// equal verdicts for every (app, mode) cell across the two arms.
	ParityOK     bool   `json:"parity_ok"`
	ParityDetail string `json:"parity_detail,omitempty"`
}

// SurfaceSweep runs the observer ablation over apps x modes. budget 0 uses
// core.DefaultBudget. withOn / withOff select the arms (the cfbench -surface
// flag); parity is only checked when both run. The flood leg runs whenever
// the observed arm does.
func SurfaceSweep(budget uint64, withOn, withOff bool) (*SurfaceSweepResult, error) {
	res := &SurfaceSweepResult{ParityOK: true}
	type outcome struct {
		verdict core.Verdict
		log     string
	}
	run := func(app *apps.App, mode core.Mode, sm core.SurfaceMode) (core.AppReport, float64) {
		start := time.Now()
		rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
			Mode:    mode,
			Budget:  budget,
			FlowLog: true,
			Surface: sm,
		})
		return rep, time.Since(start).Seconds()
	}
	for _, mode := range sweepModes() {
		for _, app := range apps.AllApps() {
			cell := SurfaceCell{App: app.Name, Mode: mode.String()}
			var on, off outcome
			if withOn {
				rep, secs := run(app, mode, core.SurfaceOn)
				res.OnSeconds += secs
				if m := rep.Final.Result.Surface; m != nil {
					cell.Boundaries = m.UniqueBoundaries
					cell.Events = m.Events
					cell.Dropped = m.Dropped
					cell.Calls = m.Calls
					cell.Truncated = m.Truncated
				}
				cell.VerdictOn = rep.Verdict().String()
				on = outcome{rep.Verdict(), joinLog(rep)}
			}
			if withOff {
				rep, secs := run(app, mode, core.SurfaceOff)
				res.OffSeconds += secs
				cell.VerdictOff = rep.Verdict().String()
				off = outcome{rep.Verdict(), joinLog(rep)}
			}
			res.Cells = append(res.Cells, cell)
			if withOn && withOff && res.ParityOK {
				switch {
				case on.verdict != off.verdict:
					res.ParityOK = false
					res.ParityDetail = fmt.Sprintf("%s/%s: verdict observed=%v unobserved=%v",
						mode, app.Name, on.verdict, off.verdict)
				case on.log != off.log:
					res.ParityOK = false
					res.ParityDetail = fmt.Sprintf("%s/%s: flow log diverged", mode, app.Name)
				}
			}
		}
	}
	if withOn {
		if rasp, ok := apps.ByName("hostile-rasp"); ok {
			fl := &SurfaceFlood{App: rasp.Name}
			rep, secs := run(rasp, core.ModeNDroid, core.SurfaceOn)
			fl.ThrottledSeconds = secs
			if m := rep.Final.Result.Surface; m != nil {
				fl.Calls = m.Calls
				fl.ThrottledEvents = m.Events
				fl.ThrottledAttempts = uint64(m.Events) + m.Dropped
			}
			rep, secs = run(rasp, core.ModeNDroid, core.SurfaceUnthrottled)
			fl.UnthrottledSeconds = secs
			if m := rep.Final.Result.Surface; m != nil {
				fl.UnthrottledEvents = m.Events
				fl.UnthrottledAttempts = uint64(m.Events) + m.Dropped
			}
			_, fl.OffSeconds = run(rasp, core.ModeNDroid, core.SurfaceOff)
			res.Flood = fl
		}
	}
	return res, nil
}

// String renders the ablation as a per-cell table plus totals.
func (r *SurfaceSweepResult) String() string {
	s := fmt.Sprintf("%-16s %-12s %6s %6s %8s %9s %5s %8s %8s\n",
		"app", "mode", "bounds", "events", "dropped", "calls", "trunc", "v(on)", "v(off)")
	var events int
	var dropped, calls uint64
	for _, c := range r.Cells {
		trunc := ""
		if c.Truncated {
			trunc = "yes"
		}
		s += fmt.Sprintf("%-16s %-12s %6d %6d %8d %9d %5s %8s %8s\n",
			c.App, c.Mode, c.Boundaries, c.Events, c.Dropped, c.Calls, trunc,
			c.VerdictOn, c.VerdictOff)
		events += c.Events
		dropped += c.Dropped
		calls += c.Calls
	}
	s += fmt.Sprintf("totals: %d calls observed as %d events (%d dropped by throttle+budget)\n",
		calls, events, dropped)
	if fl := r.Flood; fl != nil {
		s += fmt.Sprintf("flood (%s): %d calls -> %d attempts throttled vs %d unthrottled; wall clock %.3fs / %.3fs / %.3fs (throttled/unthrottled/off)\n",
			fl.App, fl.Calls, fl.ThrottledAttempts, fl.UnthrottledAttempts,
			fl.ThrottledSeconds, fl.UnthrottledSeconds, fl.OffSeconds)
	}
	if r.OnSeconds > 0 && r.OffSeconds > 0 {
		s += fmt.Sprintf("sweep wall clock: observed %.3fs, unobserved %.3fs\n", r.OnSeconds, r.OffSeconds)
		if r.ParityOK {
			s += "parity: OK (flow logs and verdicts byte-identical across arms)\n"
		} else {
			s += "parity: MISMATCH — " + r.ParityDetail + "\n"
		}
	}
	return s
}
