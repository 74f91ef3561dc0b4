package cfbench

// Cache ablation for the analysis service (ISSUE 8): sweep the evaluation
// corpus through the submission pipeline in three regimes — no artifact store
// at all, a cold store populated as the sweep runs, and a warm store that
// answers every submission from its verdict record — plus a shared-library
// leg that re-submits dex-modified variants of already-analyzed apps and
// must reuse every assembled native image without running the assembler.
//
// Caching is a pure cost optimisation: all regimes must agree byte for byte
// on every flow log and verdict (cmd/cfbench exits nonzero otherwise), the
// warm arm must clear WarmSpeedupFloor over the cold arm on the responsive
// corpus, and the shared-library arm is counter-asserted to zero assembles.

import (
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/static"
)

// WarmSpeedupFloor is the minimum warm/cold apps-per-second ratio the
// ablation is expected to clear: a verdict replay runs zero guest
// instructions, so anything below this means the cache is not actually
// short-circuiting.
const WarmSpeedupFloor = 3.0

// warmPasses is how many times the warm arm is measured (best kept). A
// warm replay is pure fixed cost — fingerprint plus one record read per
// app — so its measured slices are single-digit milliseconds at full
// corpus size and one scheduler hiccup skews the warm/cold ratio; the
// best-of-N discipline matches the Fig. 10 rows. Every pass is held to
// the same parity and computed==0 bar, only the timing keeps the best.
const warmPasses = 3

// CacheArm is one regime of the cache ablation.
type CacheArm struct {
	Name       string  `json:"name"` // nocache, cold, warm, sharedlib
	Apps       int     `json:"apps"` // responsive submissions measured
	Seconds    float64 `json:"seconds"`
	AppsPerSec float64 `json:"apps_per_sec"`

	BudgetBoundApps    int     `json:"budget_bound_apps,omitempty"`
	BudgetBoundSeconds float64 `json:"budget_bound_seconds,omitempty"`

	// Pipeline traffic.
	Computed    int `json:"computed"`
	VerdictHits int `json:"verdict_hits,omitempty"`
	Deduped     int `json:"deduped,omitempty"`

	// Artifact traffic aggregated across the fingerprint stage and shards.
	StaticRuns     int `json:"static_runs,omitempty"`
	StaticDiskHits int `json:"static_disk_hits,omitempty"`
	DexValidations int `json:"dex_validations,omitempty"`
	DexCheckHits   int `json:"dex_check_hits,omitempty"`
	AsmAssembles   int `json:"asm_assembles,omitempty"`
	AsmCacheHits   int `json:"asm_cache_hits,omitempty"`
	CacheFaults    int `json:"cache_faults,omitempty"`

	// Store-level counter deltas for this arm (zero without a store).
	StoreHits      int `json:"store_hits,omitempty"`
	StoreMisses    int `json:"store_misses,omitempty"`
	StorePuts      int `json:"store_puts,omitempty"`
	StoreCorrupt   int `json:"store_corrupt,omitempty"`
	StoreEvictions int `json:"store_evictions,omitempty"`
}

// CacheSweepResult is the full cache ablation.
type CacheSweepResult struct {
	NoCache   *CacheArm `json:"nocache,omitempty"`
	Cold      *CacheArm `json:"cold,omitempty"`
	Warm      *CacheArm `json:"warm,omitempty"`
	SharedLib *CacheArm `json:"sharedlib,omitempty"`

	// WarmSpeedup is warm apps/sec over cold apps/sec (responsive corpus).
	WarmSpeedup float64 `json:"warm_speedup,omitempty"`

	// ParityOK records the soundness check: byte-identical flow logs and
	// equal verdicts for every app across every regime that ran, and zero
	// assembler runs on the shared-library leg.
	ParityOK     bool   `json:"parity_ok"`
	ParityDetail string `json:"parity_detail,omitempty"`
}

// cacheSweepArm submits the corpus to a fresh service over store (nil for the
// uncached regime), timing each submission, and returns the arm counters plus
// per-app outcomes for the parity check.
func cacheSweepArm(name string, budget uint64, store *cas.Store, corpus []*apps.App) (*CacheArm, map[string]cellOutcome, error) {
	var pre cas.Stats
	if store != nil {
		pre = store.Stats()
	}
	// Pins on: the static pre-analysis is the heaviest cacheable artifact, so
	// the ablation runs with it enabled (it is speed-only — the pin parity
	// suite holds flow logs byte-identical either way).
	svc, err := service.New(service.Options{
		Workers: 1,
		Cache:   store,
		Analyze: core.AnalyzeOptions{Mode: core.ModeNDroid, Budget: budget, FlowLog: true,
			Static: static.PinLevel},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cfbench: boot %s service: %w", name, err)
	}
	arm := &CacheArm{Name: name}
	outcomes := map[string]cellOutcome{}
	for _, app := range corpus {
		start := time.Now()
		res := <-svc.Submit(app.Spec())
		elapsed := time.Since(start).Seconds()
		if res.Err != nil {
			svc.Close()
			return nil, nil, fmt.Errorf("cfbench: %s arm, %s: %w", name, app.Name, res.Err)
		}
		if res.Report.Verdict() == core.VerdictTimeout {
			arm.BudgetBoundApps++
			arm.BudgetBoundSeconds += elapsed
		} else {
			arm.Apps++
			arm.Seconds += elapsed
		}
		outcomes[app.Name] = cellOutcome{verdict: res.Report.Verdict(), log: joinLog(res.Report)}
	}
	svc.Close()
	if arm.Seconds > 0 {
		arm.AppsPerSec = float64(arm.Apps) / arm.Seconds
	}
	st := svc.Stats()
	arm.Computed = st.Computed
	arm.VerdictHits = st.VerdictHits
	arm.Deduped = st.Deduped
	arm.StaticRuns = st.Runner.StaticRuns
	arm.StaticDiskHits = st.Runner.StaticDiskHits
	arm.DexValidations = st.Runner.DexValidations
	arm.DexCheckHits = st.Runner.DexCheckHits
	arm.AsmAssembles = st.Runner.AsmAssembles
	arm.AsmCacheHits = st.Runner.AsmCacheHits
	arm.CacheFaults = st.Runner.CacheFaults
	if store != nil {
		post := store.Stats()
		arm.StoreHits = int(post.Hits - pre.Hits)
		arm.StoreMisses = int(post.Misses - pre.Misses)
		arm.StorePuts = int(post.Puts - pre.Puts)
		arm.StoreCorrupt = int(post.Corrupt - pre.Corrupt)
		arm.StoreEvictions = int(post.Evictions - pre.Evictions)
	}
	return arm, outcomes, nil
}

// CacheSweep runs the ablation. budget 0 uses core.DefaultBudget. withOff
// runs the uncached regime; withOn runs cold, warm, and shared-library over
// one store (the cfbench -cache flag). dir optionally pins the store
// location; empty uses a temporary directory.
func CacheSweep(budget uint64, withOff, withOn bool, dir string) (*CacheSweepResult, error) {
	res := &CacheSweepResult{ParityOK: true}
	corpus := apps.AllApps()
	var base map[string]cellOutcome

	compare := func(name string, got map[string]cellOutcome) {
		if base == nil || !res.ParityOK {
			return
		}
		for app, want := range base {
			g, ok := got[app]
			switch {
			case !ok:
				res.ParityOK = false
				res.ParityDetail = fmt.Sprintf("%s arm: %s missing", name, app)
			case g.verdict != want.verdict:
				res.ParityOK = false
				res.ParityDetail = fmt.Sprintf("%s arm: %s verdict %v, baseline %v", name, app, g.verdict, want.verdict)
			case g.log != want.log:
				res.ParityOK = false
				res.ParityDetail = fmt.Sprintf("%s arm: %s flow log diverged", name, app)
			}
			if !res.ParityOK {
				return
			}
		}
	}

	if withOff {
		arm, out, err := cacheSweepArm("nocache", budget, nil, corpus)
		if err != nil {
			return nil, err
		}
		res.NoCache, base = arm, out
	}
	if withOn {
		if dir == "" {
			tmp, err := os.MkdirTemp("", "ndroid-cas-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		store, err := cas.Open(dir)
		if err != nil {
			return nil, err
		}
		cold, coldOut, err := cacheSweepArm("cold", budget, store, corpus)
		if err != nil {
			return nil, err
		}
		res.Cold = cold
		if base == nil {
			base = coldOut
		} else {
			compare("cold", coldOut)
		}
		var warm *CacheArm
		for pass := 0; pass < warmPasses; pass++ {
			w, warmOut, err := cacheSweepArm("warm", budget, store, corpus)
			if err != nil {
				return nil, err
			}
			compare("warm", warmOut)
			if res.ParityOK && w.Computed != 0 {
				res.ParityOK = false
				res.ParityDetail = fmt.Sprintf("warm arm recomputed %d apps; every verdict should replay", w.Computed)
			}
			if warm == nil || w.AppsPerSec > warm.AppsPerSec {
				warm = w
			}
		}
		res.Warm = warm
		if cold.AppsPerSec > 0 {
			res.WarmSpeedup = warm.AppsPerSec / cold.AppsPerSec
		}

		// Shared-library leg: same native images under different dex. Every
		// assembled image must come from the store; everything dex-scoped is
		// recomputed, so outcomes still match the base app byte for byte.
		var variants []*apps.App
		for _, app := range corpus {
			variants = append(variants, apps.SharedLibVariant(app))
		}
		shared, sharedOut, err := cacheSweepArm("sharedlib", budget, store, variants)
		if err != nil {
			return nil, err
		}
		res.SharedLib = shared
		if res.ParityOK && shared.AsmAssembles != 0 {
			res.ParityOK = false
			res.ParityDetail = fmt.Sprintf("sharedlib arm ran the assembler %d times; shared images must replay", shared.AsmAssembles)
		}
		if base != nil && res.ParityOK {
			for _, app := range corpus {
				want, got := base[app.Name], sharedOut[app.Name+"+sharedlib"]
				if got.verdict != want.verdict || got.log != want.log {
					res.ParityOK = false
					res.ParityDetail = fmt.Sprintf("sharedlib arm: %s diverged from its base app", app.Name)
					break
				}
			}
		}
	}
	return res, nil
}

// String renders the ablation as a short table.
func (c *CacheSweepResult) String() string {
	s := fmt.Sprintf("%-10s %6s %9s %10s %9s %8s %7s %8s %8s %8s %8s\n",
		"arm", "apps", "seconds", "apps/sec", "computed", "verdhit", "dedup", "asm", "asmhit", "sthit", "puts")
	row := func(a *CacheArm) string {
		return fmt.Sprintf("%-10s %6d %9.3f %10.1f %9d %8d %7d %8d %8d %8d %8d\n",
			a.Name, a.Apps, a.Seconds, a.AppsPerSec, a.Computed, a.VerdictHits,
			a.Deduped, a.AsmAssembles, a.AsmCacheHits, a.StoreHits, a.StorePuts)
	}
	for _, a := range []*CacheArm{c.NoCache, c.Cold, c.Warm, c.SharedLib} {
		if a != nil {
			s += row(a)
		}
	}
	if c.WarmSpeedup > 0 {
		s += fmt.Sprintf("warm speedup: %.2fx apps-analyzed/sec over cold (floor %.1fx)\n", c.WarmSpeedup, WarmSpeedupFloor)
	}
	if c.ParityOK {
		s += "parity: OK (flow logs and verdicts byte-identical across cache regimes)\n"
	} else {
		s += "parity: MISMATCH — " + c.ParityDetail + "\n"
	}
	return s
}
