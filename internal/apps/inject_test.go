package apps_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/surface"
)

// appOutcome is the comparison unit for injection parity: the final verdict
// plus the final attempt's flow log, byte for byte.
type appOutcome struct {
	verdict core.Verdict
	log     string
}

// studyOutcomes sweeps the full corpus and captures each app's outcome.
func studyOutcomes(t *testing.T) map[string]appOutcome {
	out := map[string]appOutcome{}
	rep, _ := runStudy(t, apps.StudyOptions{Budget: testBudget, FlowLog: true}, 1)
	for _, row := range rep.Rows {
		out[row.App.Name] = appOutcome{
			verdict: row.Report.Verdict(),
			log:     strings.Join(row.Report.Final.Result.LogLines, "\n"),
		}
	}
	return out
}

// chainSawInjection reports whether any attempt in the chain carried the
// injected fault (Site is only set on injected faults).
func chainSawInjection(r core.AppReport, site string) bool {
	for _, att := range r.Chain {
		if att.Result.Fault != nil && att.Result.Fault.Site == site {
			return true
		}
	}
	return false
}

// TestInjectionEverySiteContained arms each registered site in turn and
// analyzes case1 (whose NDroid run passes every site: JNI bridge, Dalvik
// invoke, heap allocation, native dispatch, the tracer, and the libc
// models). The injected fault must fire exactly once, be recorded in the
// chain, and resolve per the degradation policy: native-side (arm/core)
// faults degrade and the app then completes one rung down; dvm-layer faults
// are final.
func TestInjectionEverySiteContained(t *testing.T) {
	defer fault.Reset()
	app, ok := apps.ByName("case1")
	if !ok {
		t.Fatal("case1 missing")
	}
	sites := fault.Sites()
	if len(sites) < 6 {
		t.Fatalf("only %d injection sites registered: %v", len(sites), sites)
	}
	for _, site := range sites {
		site := site
		t.Run(site, func(t *testing.T) {
			fault.Reset()
			aOpts := core.AnalyzeOptions{Budget: testBudget, FlowLog: true}
			spec := app.Spec()
			switch site {
			case core.SiteSnapshotRestore:
				// The restore site only exists on the fork-server path.
				runner, err := core.NewRunner()
				if err != nil {
					t.Fatal(err)
				}
				aOpts.Runner = runner
			case cas.SiteLoad:
				// The store is read only by the service's verdict load.
				injectVerdictLoad(t, app)
				return
			}
			if err := fault.Arm(site, fault.UnmappedAccess); err != nil {
				t.Fatal(err)
			}
			r := core.AnalyzeApp(spec, aOpts)
			if n := fault.Fired(site); n != 1 {
				t.Fatalf("site fired %d times, want exactly 1 (chain %s)", n, r.ChainString())
			}
			if site == surface.SiteOverflow {
				// Surface-budget exhaustion is absorbed degradation: the map
				// truncates (typed, verdict-visible flag) but the analysis
				// itself — verdict, chain, flow log — is untouched.
				if chainSawInjection(r, site) {
					t.Fatalf("absorbed surface overflow surfaced in chain %s", r.ChainString())
				}
				if r.Verdict() != core.VerdictLeak || r.Degraded {
					t.Errorf("chain %s: surface overflow must be invisible (want undegraded leak)", r.ChainString())
				}
				m := r.Final.Result.Surface
				if m == nil || !m.Truncated {
					t.Errorf("surface map = %+v, want truncated map", m)
				}
				return
			}
			if !chainSawInjection(r, site) {
				t.Fatalf("injected fault not recorded in chain %s", r.ChainString())
			}
			if site == core.SiteSnapshotRestore {
				// Injected restore corruption surfaces as a typed InternalError
				// (whatever kind was armed) and takes the same-mode
				// fresh-System retry, not degradation.
				f := r.Chain[0].Result.Fault
				if f == nil || f.Kind != fault.InternalError {
					t.Fatalf("chain %s: want InternalError on first attempt, got %v", r.ChainString(), f)
				}
				if r.Verdict() != core.VerdictLeak || r.Degraded {
					t.Errorf("chain %s: want same-mode retry ending in leak", r.ChainString())
				}
				return
			}
			layer, _ := fault.SiteLayer(site)
			switch layer {
			case "arm", "core":
				// One-shot injection consumed on the NDroid attempt; the
				// degraded retry runs clean. case1 is the one leak TaintDroid
				// catches, so the final verdict is still a leak.
				if r.Verdict() != core.VerdictLeak || !r.Degraded {
					t.Errorf("chain %s: want degradation ending in leak", r.ChainString())
				}
			default:
				if r.Verdict() != core.VerdictFault {
					t.Errorf("chain %s: dvm-layer injection should be final", r.ChainString())
				}
			}
		})
	}
}

// injectVerdictLoad is TestInjectionEverySiteContained's cas.load case. A
// first submission stores case1's verdict; the site is armed; a resubmission
// then hits the injected load fault. Cache corruption is absorbed: the
// poisoned entry is evicted and recomputed, the verdict and chain are
// untouched, and the only trace is the CacheFaults counter.
func injectVerdictLoad(t *testing.T, app *apps.App) {
	t.Helper()
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Options{
		Cache:   store,
		Analyze: core.AnalyzeOptions{Budget: testBudget, FlowLog: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if res := <-svc.Submit(app.Spec()); res.Source != "computed" {
		t.Fatalf("first submission: source %q, want computed", res.Source)
	}
	if err := fault.Arm(cas.SiteLoad, fault.UnmappedAccess); err != nil {
		t.Fatal(err)
	}
	res := <-svc.Submit(app.Spec())
	if n := fault.Fired(cas.SiteLoad); n != 1 {
		t.Fatalf("site fired %d times, want exactly 1", n)
	}
	r := res.Report
	if res.Source != "computed" {
		t.Errorf("resubmission: source %q, want computed past the faulted load", res.Source)
	}
	if chainSawInjection(r, cas.SiteLoad) {
		t.Fatalf("absorbed cache fault surfaced in chain %s", r.ChainString())
	}
	if r.Verdict() != core.VerdictLeak || r.Degraded {
		t.Errorf("chain %s: cache fault must be invisible (want undegraded leak)", r.ChainString())
	}
	if n := svc.Stats().Runner.CacheFaults; n != 1 {
		t.Errorf("CacheFaults = %d, want 1", n)
	}
}

// TestInjectionParity is the isolation proof: with injection armed at a
// site, the fault is absorbed by the first app that passes it, and (a) every
// other app in the same sweep produces a byte-identical flow log and verdict
// versus a no-injection baseline, and (b) a fresh no-injection sweep
// afterwards is byte-identical across all apps — nothing leaks out of a
// discarded faulting System.
//
// The default run covers every registered site with one fault kind; setting
// NDROID_FAULT_INJECT=all (the CI fault-inject job) crosses every site with
// a representative kind set, including kinds that exercise the timeout and
// internal-retry paths.
func TestInjectionParity(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	base := studyOutcomes(t)

	kinds := []fault.Kind{fault.UnmappedAccess}
	if os.Getenv("NDROID_FAULT_INJECT") != "" {
		kinds = []fault.Kind{fault.UnmappedAccess, fault.BudgetExceeded, fault.InternalError}
	}
	for _, site := range fault.Sites() {
		for _, k := range kinds {
			site, k := site, k
			t.Run(site+"/"+k.String(), func(t *testing.T) {
				fault.Reset()
				if err := fault.Arm(site, k); err != nil {
					t.Fatal(err)
				}
				// The sweep runs through the service on one worker, so each
				// site's first passage is deterministic. The worker's
				// fingerprint step installs each app before analyzing it and
				// absorbs the restore injection (it rewinds first, then
				// reboots and retries). The first app's verdict lookup
				// absorbs the cache-load injection, which only exists with a
				// store attached, so that sweep runs against a fresh store.
				// Analyzing the first app consumes every other site's
				// injection.
				sOpts := apps.StudyOptions{Budget: testBudget, FlowLog: true}
				if site == cas.SiteLoad {
					store, err := cas.Open(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					sOpts.Cache = store
				}
				rep, st := runStudy(t, sOpts, 1)
				if n := fault.Fired(site); n != 1 {
					t.Fatalf("site fired %d times across the sweep, want 1", n)
				}
				// Absorbed sites leave no trace in any app's chain, and the app
				// that consumed one must ALSO match the baseline byte for byte.
				wantAbsorbed := 1
				if site == cas.SiteLoad || site == surface.SiteOverflow || site == core.SiteSnapshotRestore {
					// The cache fault evicts and recomputes, the surface
					// overflow truncates only the map, and the
					// fingerprint step reboots past the failed restore. The
					// restore row counted one absorbing app while the removed
					// StudyOptions.Snapshot sweep let a study Runner consume it
					// on the ladder; TestInjectionEverySiteContained still
					// covers that path.
					wantAbsorbed = 0
				}
				if site == core.SiteSnapshotRestore && st.Runner.Boots != 2 {
					// The worker's Runner boots once; the fingerprint step's
					// reboot after the failed restore is the second.
					t.Errorf("service booted %d times, want 2", st.Runner.Boots)
				}
				absorbed := 0
				for _, row := range rep.Rows {
					if chainSawInjection(row.Report, site) {
						absorbed++
						continue
					}
					want, got := base[row.App.Name], appOutcome{
						verdict: row.Report.Verdict(),
						log:     strings.Join(row.Report.Final.Result.LogLines, "\n"),
					}
					if got.verdict != want.verdict {
						t.Errorf("%s: verdict %v, baseline %v", row.App.Name, got.verdict, want.verdict)
					}
					if got.log != want.log {
						t.Errorf("%s: flow log diverged from baseline after injection elsewhere", row.App.Name)
					}
				}
				if absorbed != wantAbsorbed {
					t.Errorf("injected fault absorbed by %d apps, want %d", absorbed, wantAbsorbed)
				}

				// (b) fresh sweep with nothing armed: byte-identical for
				// every app, including the one that absorbed the fault.
				fault.DisarmAll()
				again := studyOutcomes(t)
				for name, want := range base {
					got := again[name]
					if got.verdict != want.verdict || got.log != want.log {
						t.Errorf("%s: post-injection fresh run differs from baseline", name)
					}
				}
			})
		}
	}
}
