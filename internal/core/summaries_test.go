package core_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// TestStaticSummaryTierDiverges keeps the oracle behind summary validation
// alive. hostile-sumdodge's native taint transfer depends on its argument's
// value, so the unvalidated static tier applies a wrong summary under NDroid
// and its flow log departs from full tracing, while the validated tier
// rejects that summary and matches full tracing byte for byte. If the
// exhibit ever stops diverging, nothing shows that validation is needed.
func TestStaticSummaryTierDiverges(t *testing.T) {
	app, ok := apps.ByName("hostile-sumdodge")
	if !ok {
		t.Fatal("hostile-sumdodge missing")
	}
	run := func(sm core.SummaryMode) core.RunResult {
		rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: 1 << 21, FlowLog: true, Summaries: sm})
		return rep.Final.Result
	}
	off, unvalidated, validated := run(core.SummaryOff), run(core.SummaryStatic), run(core.SummaryValidated)
	logOf := func(r core.RunResult) string { return strings.Join(r.LogLines, "\n") }

	if unvalidated.SummaryApplied == 0 {
		t.Error("static tier applied no summary; the divergence exhibit is dead")
	}
	if logOf(unvalidated) == logOf(off) {
		t.Error("static tier's flow log matches full tracing; hostile-sumdodge no longer diverges")
	}
	if len(validated.SummaryRejections) == 0 {
		t.Error("validated tier rejected nothing")
	}
	if logOf(validated) != logOf(off) || validated.Verdict != off.Verdict {
		t.Error("validated tier diverged from full tracing")
	}
}
