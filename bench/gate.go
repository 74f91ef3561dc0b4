package bench

import (
	"fmt"
	"sync"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/taint"
)

// maxKeptFailures bounds the failure messages a report carries; the count
// is always exact.
const maxKeptFailures = 20

// Gate is the correctness check every output passes through. A failure is
// a wrong verdict, a missing or wrong leak payload, a submission error, or
// a parity mismatch: one content digest producing two different flow logs
// or verdicts anywhere in the run (computed vs replayed, traced vs
// untraced, populate pass vs warm replay, one round vs the next).
type Gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	outcomes  map[string]outcome // by content digest
}

type outcome struct {
	logHash string
	verdict core.Verdict
}

func newGate() *Gate { return &Gate{outcomes: make(map[string]outcome)} }

// CheckResult validates one service result against its item's expectation
// and records its outcome for parity. It reports whether the result passed.
func (g *Gate) CheckResult(it *Item, res service.Result) bool {
	msg := resultProblem(it, res)
	var o outcome
	if msg == "" {
		o = outcome{logHash: cas.DigestStrings(res.Report.Final.Result.LogLines...), verdict: res.Report.Verdict()}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if msg == "" {
		if prev, ok := g.outcomes[res.Digest]; !ok {
			g.outcomes[res.Digest] = o
		} else if prev != o {
			msg = fmt.Sprintf("parity: digest %s gave flow log %s/%s, earlier %s/%s",
				res.Digest, o.logHash, o.verdict, prev.logHash, prev.verdict)
		}
	}
	if msg != "" {
		g.failLocked(fmt.Sprintf("%s (%s, source %s): %s", it.Name, it.Family(), res.Source, msg))
		return false
	}
	return true
}

// resultProblem describes what is wrong with a result, "" when nothing is.
func resultProblem(it *Item, res service.Result) string {
	if res.Err != nil {
		return "submission error: " + res.Err.Error()
	}
	if v := res.Report.Verdict(); v != it.Expect.Verdict {
		return fmt.Sprintf("verdict %s, want %s (chain %s)", v, it.Expect.Verdict, res.Report.ChainString())
	}
	if it.Expect.Leak != "" && !leaked(res.Report.Final.Result.Leaks, it.Expect.Leak) {
		return fmt.Sprintf("no IMEI leak of %q to %s", it.Expect.Leak, sinkHost)
	}
	return ""
}

func leaked(leaks []core.Leak, payload string) bool {
	for _, l := range leaks {
		if l.Sink == "Network.send" && l.Dest == sinkHost && l.Tag&taint.IMEI != 0 && string(l.Data) == payload {
			return true
		}
	}
	return false
}

// Check records one pass/fail outcome checked outside CheckResult;
// describe is called only on failure.
func (g *Gate) Check(ok bool, describe func() string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !ok {
		g.failLocked(describe())
	}
	return ok
}

func (g *Gate) failLocked(msg string) {
	g.failed++
	if len(g.failures) < maxKeptFailures {
		g.failures = append(g.failures, msg)
	}
}

// Counts reports attempted and failed checks.
func (g *Gate) Counts() (attempted, failed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed
}

// Failures returns the first failure messages.
func (g *Gate) Failures() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.failures...)
}
