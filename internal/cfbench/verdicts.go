package cfbench

import (
	"fmt"

	"repro/internal/core"
)

// VerdictCounts summarizes one contained sweep over the full evaluation
// corpus (benign + hostile): how many apps landed on each verdict and how
// much retry/degradation work the fault containment performed. It rides
// along in the -json output so a robustness regression (an app that used to
// complete starts faulting, or containment stops degrading) shows up in the
// same artifact as the performance numbers.
type VerdictCounts struct {
	Apps     int `json:"apps"`
	Clean    int `json:"clean"`
	Leak     int `json:"leak"`
	Fault    int `json:"fault"`
	Timeout  int `json:"timeout"`
	Degraded int `json:"degraded"`
	Attempts int `json:"attempts"`
}

// Verdicts counts the contained verdicts of the matrix's baseline run under
// NDroid: the production defaults over the whole corpus.
func (m *Matrix) Verdicts() *VerdictCounts {
	run := m.find("baseline", core.ModeNDroid)
	if run == nil {
		return nil
	}
	v := &VerdictCounts{Apps: len(run.Cells)}
	for _, c := range run.Cells {
		v.Attempts += c.Attempts
		if c.Degraded {
			v.Degraded++
		}
		switch c.Verdict {
		case core.VerdictClean.String():
			v.Clean++
		case core.VerdictLeak.String():
			v.Leak++
		case core.VerdictFault.String():
			v.Fault++
		case core.VerdictTimeout.String():
			v.Timeout++
		}
	}
	return v
}

// String renders the counters on one line.
func (v *VerdictCounts) String() string {
	return fmt.Sprintf("apps=%d clean=%d leak=%d fault=%d timeout=%d degraded=%d attempts=%d",
		v.Apps, v.Clean, v.Leak, v.Fault, v.Timeout, v.Degraded, v.Attempts)
}
