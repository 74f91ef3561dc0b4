package surface

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

// A flood over one boundary must cost O(log calls) events throttled and stop
// charging the budget entirely once exhausted, with the loss counted.
func TestThrottledFloodStaysBounded(t *testing.T) {
	o := NewObserver()
	o.Register("Lx;.check", false, 0, 0x1000)
	for i := 0; i < 1_000_000; i++ {
		o.Call("Lx;.check")
	}
	m := o.Map()
	if m.UniqueBoundaries != 1 {
		t.Fatalf("boundaries = %d, want 1", m.UniqueBoundaries)
	}
	if m.Calls != 1_000_000 {
		t.Fatalf("raw calls = %d, want 1000000", m.Calls)
	}
	if m.Events > o.Budget {
		t.Fatalf("events %d exceed budget %d", m.Events, o.Budget)
	}
	// 1 registration + buckets 1,2,4,...,2^19 = 21 events: under budget,
	// so a single flooded boundary alone does not truncate.
	if m.Truncated {
		t.Fatalf("single-boundary flood should fit the budget, map truncated: %+v", m)
	}
	if m.Events != 21 {
		t.Fatalf("events = %d, want 21 (1 reg + 20 power-of-two buckets)", m.Events)
	}
}

func TestUnthrottledFloodBlowsBudget(t *testing.T) {
	o := NewObserver()
	o.Throttle = false
	for i := 0; i < 10_000; i++ {
		o.Call("Lx;.check")
	}
	m := o.Map()
	if !m.Truncated {
		t.Fatal("unthrottled flood must truncate")
	}
	if m.Events > o.Budget {
		t.Fatalf("events %d exceed budget %d", m.Events, o.Budget)
	}
	if m.Dropped != 10_000-uint64(o.Budget) {
		t.Fatalf("dropped = %d, want %d", m.Dropped, 10_000-o.Budget)
	}
	if m.Calls != 10_000 {
		t.Fatalf("raw calls survive truncation: got %d", m.Calls)
	}
}

// Boundaries discovered after exhaustion still appear in the map with raw
// counters: truncation loses event detail, never discovery.
func TestDiscoverySurvivesTruncation(t *testing.T) {
	o := NewObserver()
	o.Budget = 2
	o.Call("La;.a")
	o.Call("Lb;.b")
	o.Register("Lc;.late", true, 0x1000, 0x2000)
	m := o.Map()
	if !m.Truncated {
		t.Fatal("want truncated")
	}
	if m.UniqueBoundaries != 3 {
		t.Fatalf("boundaries = %d, want 3 (late boundary still discovered)", m.UniqueBoundaries)
	}
	var late *Boundary
	for i := range m.Boundaries {
		if m.Boundaries[i].Name == "Lc;.late" {
			late = &m.Boundaries[i]
		}
	}
	if late == nil || !late.Dynamic || late.RegEvents != 1 {
		t.Fatalf("late boundary lost: %+v", late)
	}
	if len(late.Registrations) != 0 {
		t.Fatalf("budget-exhausted registration history must be dropped, got %v", late.Registrations)
	}
}

func TestMapBytesDeterministic(t *testing.T) {
	build := func() *Map {
		o := NewObserver()
		o.Register("Lb;.m2", true, 0x10, 0x20)
		o.Register("La;.m1", false, 0, 0x30)
		for i := 0; i < 7; i++ {
			o.Call("La;.m1")
		}
		o.Reflect("Lc;.cb")
		o.CodeWrite(0x5004)
		o.CodeWrite(0x5008)
		return o.Map()
	}
	a, b := build(), build()
	if !a.Equal(b) {
		t.Fatalf("identical runs produced different maps:\n%s\n%s", a.Bytes(), b.Bytes())
	}
	if a.Boundaries[0].Name != "La;.m1" {
		t.Fatalf("boundaries not sorted: %s first", a.Boundaries[0].Name)
	}
}

// An injected surface.overflow hit truncates exactly like a real exhaustion:
// the map is flagged, later events drop, raw counters survive.
func TestInjectedOverflowTruncates(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm(SiteOverflow, fault.BudgetExceeded); err != nil {
		t.Fatal(err)
	}
	o := NewObserver()
	o.Call("La;.m")
	o.Call("La;.m")
	m := o.Map()
	if fault.Fired(SiteOverflow) != 1 {
		t.Fatalf("site fired %d times, want 1", fault.Fired(SiteOverflow))
	}
	if !m.Truncated {
		t.Fatal("injected overflow must truncate the map")
	}
	if m.Events != 0 {
		t.Fatalf("events = %d, want 0 (first event attempt absorbed the injection)", m.Events)
	}
	if m.Calls != 2 {
		t.Fatalf("raw calls = %d, want 2", m.Calls)
	}
}

// A (boundary, site) pair costs one event however often it repeats; a new
// pair past the budget is dropped and counted, and the map renders what was
// recorded.
func TestSurfaceUnreleasedPairsCountOnce(t *testing.T) {
	o := NewObserver()
	o.Budget = 2
	for i := 0; i < 1000; i++ {
		o.Unreleased("La;.m", 0x8018)
	}
	o.Unreleased("La;.m", 0x8030)
	o.Unreleased("La;.m", 0x8048)
	m := o.Map()
	want := []Unreleased{{Site: 0x8018, Count: 1000}, {Site: 0x8030, Count: 1}}
	if got := m.Boundaries[0].Unreleased; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("findings %+v, want %+v", got, want)
	}
	if m.Events != 2 || m.Dropped != 1 || !m.Truncated {
		t.Fatalf("events %d, dropped %d, truncated %t; want 2, 1, true", m.Events, m.Dropped, m.Truncated)
	}
	if s := m.String(); !strings.Contains(s, "unreleased GetStringUTFChars@0x8018 at return (count 1000)") {
		t.Fatalf("rendered map lacks the finding:\n%s", s)
	}
}
