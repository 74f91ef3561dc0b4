package cfbench

import (
	"fmt"

	"repro/internal/apps"
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

// VerdictSweep runs the corpus under contained analysis (one uncached
// service worker) and counts verdicts. budget 0 uses core.DefaultBudget.
func VerdictSweep(budget uint64) (*VerdictCounts, error) {
	rep, _, err := apps.RunStudy(apps.StudyOptions{Budget: budget}, 1)
	if err != nil {
		return nil, err
	}
	return &VerdictCounts{
		Apps:     len(rep.Rows),
		Clean:    rep.Clean,
		Leak:     rep.Leaks,
		Fault:    rep.Faults,
		Timeout:  rep.Timeouts,
		Degraded: rep.Degraded,
		Attempts: rep.Attempts,
	}, nil
}

// String renders the counters on one line.
func (v *VerdictCounts) String() string {
	return fmt.Sprintf("apps=%d clean=%d leak=%d fault=%d timeout=%d degraded=%d attempts=%d",
		v.Apps, v.Clean, v.Leak, v.Fault, v.Timeout, v.Degraded, v.Attempts)
}
