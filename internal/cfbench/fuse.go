package cfbench

// Crossing ablation for cross-boundary trace fusion (fuse.go in internal/dvm):
// sweep the full evaluation corpus across every analysis mode twice — once
// with hot Dalvik→JNI→ARM chains compiled to fused closures, once with every
// crossing on the unfused bridge — and record per-cell crossing counts, fused
// chain builds, fused dispatches, and deopts. The two arms must agree byte
// for byte on every flow log and verdict; a mismatch is a soundness bug, and
// cmd/cfbench exits nonzero on it (the CI bench-smoke gate).

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
)

// FuseCell is one (app, mode) cell of the fusion ablation: verdicts from both
// arms plus the fused arm's trace-fusion counters.
type FuseCell struct {
	App  string `json:"app"`
	Mode string `json:"mode"`

	Crossings   uint64 `json:"crossings"`
	FusedChains uint64 `json:"fused_chains"`
	FusedCalls  uint64 `json:"fused_calls"`
	Deopts      uint64 `json:"deopts"`

	VerdictFused   string `json:"verdict_fused"`
	VerdictUnfused string `json:"verdict_unfused"`
}

// FuseSweepResult is the full crossing ablation.
type FuseSweepResult struct {
	Cells []FuseCell `json:"cells"`

	FusedSeconds   float64 `json:"fused_seconds"`
	UnfusedSeconds float64 `json:"unfused_seconds"`

	// ParityOK records the soundness check: byte-identical flow logs and
	// equal verdicts for every (app, mode) cell across the two arms.
	ParityOK     bool   `json:"parity_ok"`
	ParityDetail string `json:"parity_detail,omitempty"`
}

// FuseSweep runs the fusion ablation over apps x modes. budget 0 uses
// core.DefaultBudget. withOn / withOff select the arms (the cfbench -fuse
// flag); parity is only checked when both run.
func FuseSweep(budget uint64, withOn, withOff bool) (*FuseSweepResult, error) {
	res := &FuseSweepResult{ParityOK: true}
	type outcome struct {
		verdict core.Verdict
		log     string
	}
	run := func(app *apps.App, mode core.Mode, fuse core.FuseMode) (core.AppReport, float64) {
		start := time.Now()
		rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
			Mode:    mode,
			Budget:  budget,
			FlowLog: true,
			Fuse:    fuse,
		})
		return rep, time.Since(start).Seconds()
	}
	for _, mode := range sweepModes() {
		for _, app := range apps.AllApps() {
			cell := FuseCell{App: app.Name, Mode: mode.String()}
			var on, off outcome
			if withOn {
				rep, secs := run(app, mode, core.FuseOn)
				res.FusedSeconds += secs
				r := rep.Final.Result
				cell.Crossings = r.JNICrossings
				cell.FusedChains = r.FusedChains
				cell.FusedCalls = r.FusedCalls
				cell.Deopts = r.FuseDeopts
				cell.VerdictFused = rep.Verdict().String()
				on = outcome{rep.Verdict(), joinLog(rep)}
			}
			if withOff {
				rep, secs := run(app, mode, core.FuseOff)
				res.UnfusedSeconds += secs
				r := rep.Final.Result
				if !withOn {
					cell.Crossings = r.JNICrossings
				}
				cell.VerdictUnfused = rep.Verdict().String()
				off = outcome{rep.Verdict(), joinLog(rep)}
			}
			res.Cells = append(res.Cells, cell)
			if withOn && withOff && res.ParityOK {
				switch {
				case on.verdict != off.verdict:
					res.ParityOK = false
					res.ParityDetail = fmt.Sprintf("%s/%s: verdict fused=%v unfused=%v",
						mode, app.Name, on.verdict, off.verdict)
				case on.log != off.log:
					res.ParityOK = false
					res.ParityDetail = fmt.Sprintf("%s/%s: flow log diverged", mode, app.Name)
				}
			}
		}
	}
	return res, nil
}

// String renders the ablation as a per-cell table plus totals.
func (f *FuseSweepResult) String() string {
	s := fmt.Sprintf("%-12s %-12s %10s %8s %8s %8s %10s %10s\n",
		"app", "mode", "crossings", "chains", "fused", "deopts", "v(fused)", "v(unfused)")
	var crossings, fused, deopts uint64
	for _, c := range f.Cells {
		s += fmt.Sprintf("%-12s %-12s %10d %8d %8d %8d %10s %10s\n",
			c.App, c.Mode, c.Crossings, c.FusedChains, c.FusedCalls, c.Deopts,
			c.VerdictFused, c.VerdictUnfused)
		crossings += c.Crossings
		fused += c.FusedCalls
		deopts += c.Deopts
	}
	s += fmt.Sprintf("totals: %d crossings, %d served fused, %d deopts\n", crossings, fused, deopts)
	if f.FusedSeconds > 0 && f.UnfusedSeconds > 0 {
		s += fmt.Sprintf("sweep wall clock: fused %.3fs, unfused %.3fs\n", f.FusedSeconds, f.UnfusedSeconds)
		if f.ParityOK {
			s += "parity: OK (flow logs and verdicts byte-identical across arms)\n"
		} else {
			s += "parity: MISMATCH — " + f.ParityDetail + "\n"
		}
	}
	return s
}
