package cfbench

import (
	"testing"

	"repro/internal/core"
)

// TestPinSweepPrecisionFloor locks the pin-precision acceptance bar on the
// matrix's pin table: on every benign app the pre-analysis pins at least one
// method or native page, and the pinned variant actually dispatches during
// the gated NDroid run.
func TestPinSweepPrecisionFloor(t *testing.T) {
	m := runTestMatrix(t)
	rows := m.Pins()
	if want := len(m.find("static=pin", core.ModeNDroid).Cells); len(rows) != want {
		t.Fatalf("%d pin rows, want one per corpus app (%d)", len(rows), want)
	}
	for _, r := range rows {
		if r.Hostile {
			continue
		}
		if r.PinnedMethods == 0 && r.PinnedPages == 0 {
			t.Errorf("%s: nothing pinned (methods %d/%d, pages %d/%d)",
				r.App, r.PinnedMethods, r.Methods, r.PinnedPages, r.NativePages)
		}
		if r.PinnedFrames == 0 && r.PinnedBlocks == 0 {
			t.Errorf("%s: pins never dispatched dynamically (frames %d, blocks %d)",
				r.App, r.PinnedFrames, r.PinnedBlocks)
		}
		if r.PinnedMethods > r.Methods || r.PinnedPages > r.NativePages {
			t.Errorf("%s: pin counts exceed totals: %+v", r.App, r)
		}
	}
	if report := PinReport(rows); report == "" {
		t.Error("empty pin report")
	}
}
