package apps_test

// The surface-map determinism and flood-resistance suite. The invariant
// throughout: the JNI surface map is a *derived artifact* of the analysis —
// it must be byte-identical across execution strategies (fused/unfused,
// snapshot-served, parallel worker counts, warm service replays) and bounded
// under hostile flooding, and it must never perturb verdicts or flow logs.

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/surface"
)

// TestRaspFloodBoundedUnderThrottling is the tentpole acceptance check: the
// RASP integrity loop makes tens of thousands of JNI crossings, yet the
// throttled observer spends at most the event budget, flags truncation as
// typed verdict-visible degradation, and still discovers every boundary. The
// unthrottled baseline attempts an event per call and demonstrably blows
// past the budget.
func TestRaspFloodBoundedUnderThrottling(t *testing.T) {
	app, ok := apps.ByName("hostile-rasp")
	if !ok {
		t.Fatal("hostile-rasp missing")
	}

	r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget, FlowLog: true})
	if r.Verdict() != core.VerdictClean {
		t.Fatalf("verdict = %v, want clean (chain %s)", r.Verdict(), r.ChainString())
	}
	m := r.Final.Result.Surface
	if m == nil {
		t.Fatal("no surface map")
	}
	if !m.Truncated {
		t.Error("throttled flood map not truncated: the RASP loop should exceed the event budget")
	}
	if m.Events > surface.DefaultEventBudget {
		t.Errorf("events = %d, want <= budget %d", m.Events, surface.DefaultEventBudget)
	}
	if want := uint64(3 * 8192); m.Calls != want {
		t.Errorf("raw call count = %d, want %d (throttling must not lose the tally)", m.Calls, want)
	}
	if m.UniqueBoundaries != 3 {
		t.Errorf("boundaries = %d, want 3 (discovery survives truncation)", m.UniqueBoundaries)
	}
	// Throttled cost is O(boundaries * log calls): far below one event per
	// call even before the budget clips it.
	throttledAttempts := uint64(m.Events) + m.Dropped
	if throttledAttempts >= 1000 {
		t.Errorf("throttled observer attempted %d events for %d calls", throttledAttempts, m.Calls)
	}

	// The unthrottled baseline is an analyzer with bucketing switched off.
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Install(sys); err != nil {
		t.Fatal(err)
	}
	a := core.NewAnalyzer(sys, core.ModeNDroid)
	a.Budget = testBudget
	a.Surface.Throttle = false
	um := a.Run(app.EntryClass, app.EntryMethod, nil, nil).Surface
	if um == nil || !um.Truncated {
		t.Fatalf("unthrottled map = %+v, want truncated", um)
	}
	unAttempts := uint64(um.Events) + um.Dropped
	if unAttempts < m.Calls {
		t.Errorf("unthrottled observer attempted %d events, want >= one per call (%d)", unAttempts, m.Calls)
	}
	if unAttempts < 100*throttledAttempts {
		t.Errorf("flood resistance margin too small: unthrottled %d vs throttled %d attempts",
			unAttempts, throttledAttempts)
	}
}

// TestPinswapVoidsStalePins (name kept from the pin era): the leak behind
// the mid-run RegisterNatives swap is caught under both fusion settings.
func TestPinswapVoidsStalePins(t *testing.T) {
	app, ok := apps.ByName("hostile-pinswap")
	if !ok {
		t.Fatal("hostile-pinswap missing")
	}
	for _, fuse := range []core.FuseMode{core.FuseDefault, core.FuseOff} {
		r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
			Budget: testBudget, FlowLog: true, Fuse: fuse})
		if r.Verdict() != core.VerdictLeak {
			t.Errorf("fuse=%d: verdict = %v, want leak (chain %s)", fuse, r.Verdict(), r.ChainString())
		}
	}
}

// TestSmcCodeWriteObserved: the self-modifying app's store into live native
// code shows up in the surface map (code-write counter and touched pages),
// alongside the dynamic re-registration of the swapped boundary.
func TestSmcCodeWriteObserved(t *testing.T) {
	app, ok := apps.ByName("hostile-smc")
	if !ok {
		t.Fatal("hostile-smc missing")
	}
	r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget, FlowLog: true})
	if r.Verdict() != core.VerdictLeak {
		t.Fatalf("verdict = %v, want leak (chain %s)", r.Verdict(), r.ChainString())
	}
	m := r.Final.Result.Surface
	if m == nil {
		t.Fatal("no surface map")
	}
	if m.CodeWrites == 0 || m.CodePages == 0 {
		t.Errorf("code writes = %d over %d pages, want the SMC store observed", m.CodeWrites, m.CodePages)
	}
	dynamic := false
	for _, b := range m.Boundaries {
		if b.Dynamic {
			dynamic = true
		}
	}
	if !dynamic {
		t.Error("no boundary marked dynamic after the RegisterNatives swap")
	}
}

// TestReflectDispatchObserved: the reflection leaker's hidden dispatch is
// counted on the boundary map even though the dex call graph never names it.
func TestReflectDispatchObserved(t *testing.T) {
	app, ok := apps.ByName("hostile-reflect")
	if !ok {
		t.Fatal("hostile-reflect missing")
	}
	r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget, FlowLog: true})
	if r.Verdict() != core.VerdictLeak {
		t.Fatalf("verdict = %v, want leak (chain %s)", r.Verdict(), r.ChainString())
	}
	m := r.Final.Result.Surface
	if m == nil {
		t.Fatal("no surface map")
	}
	var reflects uint64
	for _, b := range m.Boundaries {
		reflects += b.ReflectCalls
	}
	if reflects == 0 {
		t.Error("no reflection-driven dispatch recorded in the surface map")
	}
}

// surfaceBytes extracts an app report's canonical surface-map encoding.
func surfaceBytes(t *testing.T, rep core.AppReport) string {
	t.Helper()
	m := rep.Final.Result.Surface
	if m == nil {
		t.Fatal("report carries no surface map")
	}
	return string(m.Bytes())
}

func joinLines(rep core.AppReport) string {
	return strings.Join(rep.Final.Result.LogLines, "\n")
}

// TestSurfaceMapFuseParity: fused and unfused execution discover the same
// boundaries with the same counts, byte for byte, for every corpus app.
func TestSurfaceMapFuseParity(t *testing.T) {
	for _, app := range apps.AllApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			on := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget, Fuse: core.FuseDefault})
			off := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget, Fuse: core.FuseOff})
			if got, want := surfaceBytes(t, off), surfaceBytes(t, on); got != want {
				t.Errorf("surface map diverges across fusion:\nfused:   %s\nunfused: %s", want, got)
			}
		})
	}
}

// TestSurfaceMapSnapshotParity: fork-server (snapshot restore) runs emit the
// same surface map as fresh-System runs for every corpus app.
func TestSurfaceMapSnapshotParity(t *testing.T) {
	runner, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.AllApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			fresh := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget})
			warm := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget, Runner: runner})
			if got, want := surfaceBytes(t, warm), surfaceBytes(t, fresh); got != want {
				t.Errorf("surface map diverges across snapshot restore:\nfresh: %s\nwarm:  %s", want, got)
			}
		})
	}
}

// TestSurfaceMapWorkerInvariance: RunStudy emits identical per-app maps for
// any worker count.
func TestSurfaceMapWorkerInvariance(t *testing.T) {
	base, _ := runStudy(t, apps.StudyOptions{Budget: testBudget}, 1)
	wide, _ := runStudy(t, apps.StudyOptions{Budget: testBudget}, 3)
	if len(base.Rows) != len(wide.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(base.Rows), len(wide.Rows))
	}
	for i := range base.Rows {
		name := base.Rows[i].App.Name
		if got, want := surfaceBytes(t, wide.Rows[i].Report), surfaceBytes(t, base.Rows[i].Report); got != want {
			t.Errorf("%s: surface map depends on worker count:\n1 worker:  %s\n3 workers: %s", name, want, got)
		}
	}
}

// TestSurfaceMapServiceReplay is the warm-replay fix proof: a second service
// sweep over an identical corpus short-circuits entirely from verdict
// records, emits byte-identical surface maps — and its runners observe zero
// live JNI crossings, so the maps demonstrably came from the persisted
// records, not from re-execution.
func TestSurfaceMapServiceReplay(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := apps.StudyOptions{Budget: testBudget, FlowLog: true, Cache: store}

	cold, coldStats := runStudy(t, opts, 2)
	if coldStats.Runner.JNICrossings == 0 {
		t.Fatal("cold sweep observed no JNI crossings; the counter-assert below would be vacuous")
	}

	warm, warmStats := runStudy(t, opts, 2)
	if warmStats.VerdictHits != len(warm.Rows) {
		t.Fatalf("warm sweep verdict hits = %d, want %d (full short-circuit)",
			warmStats.VerdictHits, len(warm.Rows))
	}
	// Counter-assert: the warm sweep never entered guest code, so every map
	// it returned was replayed from the verdict record.
	if warmStats.Runner.JNICrossings != 0 {
		t.Errorf("warm sweep observed %d live JNI crossings, want 0", warmStats.Runner.JNICrossings)
	}
	for i := range cold.Rows {
		name := cold.Rows[i].App.Name
		if got, want := surfaceBytes(t, warm.Rows[i].Report), surfaceBytes(t, cold.Rows[i].Report); got != want {
			t.Errorf("%s: replayed surface map differs from computed:\ncomputed: %s\nreplayed: %s", name, want, got)
		}
		if got, want := joinLines(warm.Rows[i].Report), joinLines(cold.Rows[i].Report); got != want {
			t.Errorf("%s: replayed flow log differs from computed", name)
		}
	}
}

// TestSurfaceInjectionMatrixRow: the surface.overflow site under service
// caching — an injected budget exhaustion during the cold run persists a
// truncated-but-flagged map, and the warm replay faithfully reproduces the
// truncation flag instead of silently "repairing" it.
func TestSurfaceInjectionMatrixRow(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := apps.ByName("case1")

	svc, err := service.New(service.Options{
		Workers: 1,
		Cache:   store,
		Analyze: core.AnalyzeOptions{Budget: testBudget, FlowLog: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(surface.SiteOverflow, fault.BudgetExceeded); err != nil {
		t.Fatal(err)
	}
	cold := <-svc.Submit(app.Spec())
	fault.DisarmAll()
	warm := <-svc.Submit(app.Spec())
	svc.Close()

	if cold.Err != nil || warm.Err != nil {
		t.Fatalf("submission errors: cold %v warm %v", cold.Err, warm.Err)
	}
	if warm.Source != "verdict-cache" {
		t.Fatalf("warm source = %q, want verdict-cache", warm.Source)
	}
	cm, wm := cold.Report.Final.Result.Surface, warm.Report.Final.Result.Surface
	if cm == nil || !cm.Truncated {
		t.Fatalf("cold map = %+v, want truncated under injection", cm)
	}
	if wm == nil || !wm.Truncated {
		t.Fatalf("warm replay lost the truncation flag: %+v", wm)
	}
	if string(wm.Bytes()) != string(cm.Bytes()) {
		t.Errorf("replayed map differs from computed:\ncomputed: %s\nreplayed: %s", cm.Bytes(), wm.Bytes())
	}
	if cold.Report.Verdict() != core.VerdictLeak || warm.Report.Verdict() != core.VerdictLeak {
		t.Errorf("verdicts = %v/%v, want leak/leak (injection must stay absorbed)",
			cold.Report.Verdict(), warm.Report.Verdict())
	}
	if joinLines(cold.Report) != joinLines(warm.Report) {
		t.Error("flow logs diverge between injected computed run and warm replay")
	}
}
