package cfbench

import (
	"testing"

	"repro/internal/core"
)

// TestPinSweepPrecisionFloor (name kept from the pin table it used to read)
// locks the reach-precision bar on the matrix's reach table: every corpus
// app installs, so each gets a row; on every benign app core.Lint proves at
// least one method taint-free; and no corpus app's baseline NDroid flow log
// leaves the static reach sets.
func TestPinSweepPrecisionFloor(t *testing.T) {
	m := runTestMatrix(t)
	rows := m.Reach()
	if want := len(m.find("baseline", core.ModeNDroid).Cells); len(rows) != want {
		t.Fatalf("%d reach rows, want one per corpus app (%d)", len(rows), want)
	}
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("%s: %d flow-log events outside the reach sets", r.App, r.Violations)
		}
		if r.TaintFreeMethods > r.Methods || r.TaintFreePages > r.NativePages {
			t.Errorf("%s: taint-free counts exceed totals: %+v", r.App, r)
		}
		if !r.Hostile && r.TaintFreeMethods == 0 {
			t.Errorf("%s: no method proven taint-free (of %d)", r.App, r.Methods)
		}
	}
	if report := ReachReport(rows); report == "" {
		t.Error("empty reach report")
	}
}
