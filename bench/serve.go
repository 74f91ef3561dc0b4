package bench

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
)

// serveAnalyze is `ndroid -serve`'s default analysis configuration: NDroid
// with the flow log on. Fusion and the surface observer stay at their
// defaults (on), static pre-analysis and summaries at theirs (off); no
// execution knob is set, so a change of default is measured like any other
// change.
var serveAnalyze = core.AnalyzeOptions{Mode: core.ModeNDroid, FlowLog: true}

const (
	serveWorkers = 2 // `ndroid -serve` default shard count
	serveClients = 2 // closed loop: each client waits for its result before submitting again
)

// Submissions per round at Scale 1. A round replays identical work on every
// commit; a phase runs whole rounds until its time is up.
const (
	streamRound = 2000 // serve-fresh, serve-cold
	warmStored  = 500  // serve-warm: stream the set-up pass stores
	// warmResubmits is how often a serve-warm round resubmits each stored app.
	// With one variant per stored generated app, about 20% of a round is
	// variants.
	warmResubmits = 4
	// rssWindow is how many submissions one rss_peak_mb sample covers. The
	// mean over many short windows is steadier than one peak per round,
	// which depends on where garbage collections happen to fall.
	rssWindow = 250
)

type serve struct {
	cfg  Config
	gate *Gate

	stream []Item // the generated stream (serve-warm: the one set-up stores)
	round  []Item // what every round submits

	warmStore *cas.Store      // serve-warm: the store set-up populated
	warmFiles map[string]bool // serve-warm: its entries, relative to its root

	pending      *service.Service // built by the last set-up, used by the next round
	pendingStore *cas.Store
	warmedUp     bool // the unmeasured first round has run
}

func newServe(cfg Config, gate *Gate) *serve { return &serve{cfg: cfg, gate: gate} }

// setup generates the stream, populates the warm store (serve-warm), and
// boots the first round's service.
func (s *serve) setup() error {
	if s.cfg.Workload == "serve-warm" {
		s.stream = NewStream(s.cfg.Seed, scaled(warmStored, s.cfg.Scale))
		store, err := s.newStore()
		if err != nil {
			return err
		}
		svc, err := service.New(service.Options{Workers: serveWorkers, Cache: store, Analyze: serveAnalyze})
		if err != nil {
			return err
		}
		var t tally
		s.drive(svc, s.stream, nil, &t)
		svc.Close()
		s.warmStore = store
		s.warmFiles = storeFiles(store.Dir())
		s.round = warmRoundItems(s.stream, s.cfg.Seed)
	} else {
		s.stream = NewStream(s.cfg.Seed, scaled(streamRound, s.cfg.Scale))
		s.round = s.stream
	}
	svc, store, err := s.newService()
	if err != nil {
		return err
	}
	s.pending, s.pendingStore = svc, store
	return nil
}

func scaled(n, scale int) int {
	if n/scale < 20 {
		return 20
	}
	return n / scale
}

// newStore opens an empty store in the run's work directory.
//
// Nothing a run stores is deleted, by a round or at the end: once a round is
// over, retire empties the files it wrote and leaves them in place. On ext4
// without a journal, creating a file soon after many deletions is several
// times slower, as the allocator passes over recently deleted inodes, so
// deleting stores made serve-cold and serve-warm depend on how much earlier
// rounds and runs had deleted. Emptying keeps the data off the disk.
func (s *serve) newStore() (*cas.Store, error) {
	dir, err := os.MkdirTemp(s.cfg.WorkDir, "cas-")
	if err != nil {
		return nil, err
	}
	return cas.Open(dir)
}

// newService boots one round's service: no store (serve-fresh), a fresh
// store (serve-cold), or a copy of the populated store (serve-warm).
func (s *serve) newService() (*service.Service, *cas.Store, error) {
	var store *cas.Store
	var err error
	switch s.cfg.Workload {
	case "serve-cold":
		store, err = s.newStore()
	case "serve-warm":
		store, err = s.warmCopy()
	}
	if err != nil {
		return nil, nil, err
	}
	svc, err := service.New(service.Options{Workers: serveWorkers, Cache: store, Analyze: serveAnalyze})
	return svc, store, err
}

// warmCopy opens a new store whose entries are hard links to the populated
// store's: every serve-warm round finds exactly what set-up stored, and what
// a round adds stays out of later rounds.
func (s *serve) warmCopy() (*cas.Store, error) {
	store, err := s.newStore()
	if err != nil {
		return nil, err
	}
	for rel := range s.warmFiles {
		dst := filepath.Join(store.Dir(), rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return nil, err
		}
		if err := os.Link(filepath.Join(s.warmStore.Dir(), rel), dst); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// retire empties what a round wrote to its store: every file but the links
// to the populated store.
func (s *serve) retire(store *cas.Store) {
	if store != nil {
		empty(store.Dir(), s.warmFiles)
	}
}

func (s *serve) close() {
	if s.pending != nil {
		s.pending.Close()
		s.retire(s.pendingStore)
		s.pending, s.pendingStore = nil, nil
	}
	if s.warmStore != nil {
		empty(s.warmStore.Dir(), nil)
		s.warmStore, s.warmFiles = nil, nil
	}
}

// warmRoundItems builds a serve-warm round: every distinct stored app
// resubmitted warmResubmits times under new names (verdict replays), plus one
// shared-library variant of every stored generated app, under a new class
// name (new dex over a stored native image).
func warmRoundItems(stored []Item, seed int64) []Item {
	var distinct []*Item
	seen := make(map[string]bool)
	for i := range stored {
		it := &stored[i]
		if !seen[it.Content] {
			seen[it.Content] = true
			distinct = append(distinct, it)
		}
	}
	var out []Item
	for k := 0; k < warmResubmits; k++ {
		for _, src := range distinct {
			re := *src
			re.Name = fmt.Sprintf("re%d-%s", k, src.Name)
			re.Spec.Name = re.Name
			re.Repeat, re.LibReuse = true, false
			out = append(out, re)
		}
	}
	for i, src := range distinct {
		if src.Gen == nil {
			continue
		}
		class := fmt.Sprintf("%sV;", src.Gen.Class[:len(src.Gen.Class)-1])
		v := genItem(src.Gen.renamed(class), fmt.Sprintf("var%d", i))
		v.LibReuse = true
		out = append(out, v)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tally accumulates what the rounds of one phase observed.
type tally struct {
	rounds  int
	subs    int
	wall    time.Duration
	roundTP []float64 // submissions per second, per round
	rss     []float64 // peak RSS per window of rssWindow submissions, MB
	lat     []float64 // ms, Submit call to Result

	resultCounts

	computed, verdictHits, deduped int
	runner                         core.RunnerStats
	casGets, casHits, casPuts      uint64
	casCorrupt                     uint64
	storeBytes                     int64 // traced: the store's size at the last round's end

	alloc, pauseNs uint64
	gcs            uint32
}

// lane is one client's share of a round.
type lane struct {
	subs int
	lat  []float64
	rss  []float64 // peak RSS of each window this client closed, MB
	resultCounts
}

// resultCounts are what a client reads off the results it receives.
type resultCounts struct {
	java, native, traced, crossings, fused, fuseDeopts, sumApplied uint64
	events, truncated, timeouts                                    int
	timeoutMs                                                      float64
}

func (c *resultCounts) add(o *resultCounts) {
	c.java += o.java
	c.native += o.native
	c.traced += o.traced
	c.crossings += o.crossings
	c.fused += o.fused
	c.fuseDeopts += o.fuseDeopts
	c.sumApplied += o.sumApplied
	c.events += o.events
	c.truncated += o.truncated
	c.timeouts += o.timeouts
	c.timeoutMs += o.timeoutMs
}

func (l *lane) record(res service.Result, lat time.Duration) {
	l.subs++
	l.lat = append(l.lat, ms(lat))
	rep := &res.Report
	if res.Source == "computed" {
		for _, a := range rep.Chain {
			r := &a.Result
			l.java += r.JavaInsns
			l.native += r.NativeInsns
			l.traced += r.TracedInsns
			l.crossings += r.JNICrossings
			l.fused += r.FusedCalls
			l.fuseDeopts += r.FuseDeopts
			l.sumApplied += r.SummaryApplied
		}
	}
	if m := rep.Final.Result.Surface; m != nil {
		l.events += m.Events
		if m.Truncated {
			l.truncated++
		}
	}
	if rep.Verdict() == core.VerdictTimeout {
		l.timeouts++
		l.timeoutMs += ms(lat)
	}
}

// installLog times each call of one submission's Install: the first is the
// fingerprint stage's, every later one a shard's ladder rung.
type installLog struct {
	mu    sync.Mutex
	calls [][2]time.Time
}

func (il *installLog) wrap(install func(*core.System) error) func(*core.System) error {
	return func(sys *core.System) error {
		start := time.Now()
		err := install(sys)
		end := time.Now()
		il.mu.Lock()
		il.calls = append(il.calls, [2]time.Time{start, end})
		il.mu.Unlock()
		return err
	}
}

// drive runs items through svc from serveClients closed-loop clients and
// returns the wall time until the last result arrived.
func (s *serve) drive(svc *service.Service, items []Item, tr *Tracer, t *tally) time.Duration {
	var next atomic.Int64
	lanes := make([]lane, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range lanes {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(svc, items, &next, &lanes[c], c, tr)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for i := range lanes {
		l := &lanes[i]
		t.subs += l.subs
		t.lat = append(t.lat, l.lat...)
		t.rss = append(t.rss, l.rss...)
		t.add(&l.resultCounts)
	}
	return wall
}

func (s *serve) client(svc *service.Service, items []Item, next *atomic.Int64, l *lane, c int, tr *Tracer) {
	laneStart := time.Now()
	for {
		i := int(next.Add(1) - 1)
		if i >= len(items) {
			break
		}
		if i > 0 && i%rssWindow == 0 {
			l.rss = append(l.rss, peakRSSMB())
			resetPeakRSS()
		}
		it := &items[i]
		spec := it.Spec
		var il *installLog
		if tr != nil {
			il = &installLog{}
			spec.Install = il.wrap(spec.Install)
		}
		t0 := time.Now()
		ch := svc.Submit(spec)
		t1 := time.Now()
		res := <-ch
		t2 := time.Now()
		l.record(res, t2.Sub(t0))
		s.gate.CheckResult(it, res)
		if tr == nil {
			continue
		}
		t3 := time.Now()
		root := tr.add("submission", 0, c, t0, t2)
		sub := tr.add("service.submit", root, c, t0, t1)
		comp := tr.add("service.complete", root, c, t1, t2)
		il.mu.Lock()
		for k, call := range il.calls {
			if k == 0 {
				tr.add("fingerprint.install", sub, c, call[0], call[1])
			} else {
				tr.add("runner.install", comp, c, call[0], call[1])
			}
		}
		il.mu.Unlock()
		tr.add("bench.check", 0, c, t2, t3)
	}
	tr.laneWall(c, time.Since(laneStart))
}

// runRound runs one round on a service of its own and adds what it observed
// to t.
func (s *serve) runRound(tr *Tracer, t *tally) error {
	svc, store := s.pending, s.pendingStore
	s.pending, s.pendingStore = nil, nil
	if svc == nil {
		// Boot on a heap without the previous round's service, so every
		// round starts from the same heap and resident set.
		debug.FreeOSMemory()
		var err error
		if svc, store, err = s.newService(); err != nil {
			return err
		}
	}
	var before cas.Stats
	if store != nil {
		before = store.Stats()
	}
	subs := t.subs
	resetPeakRSS()
	wall := s.drive(svc, s.round, tr, t)
	t.rss = append(t.rss, peakRSSMB())
	svc.Close()
	t.rounds++
	t.wall += wall
	t.roundTP = append(t.roundTP, float64(t.subs-subs)/wall.Seconds())
	st := svc.Stats()
	t.computed += st.Computed
	t.verdictHits += st.VerdictHits
	t.deduped += st.Deduped
	addRunnerStats(&t.runner, st.Runner)
	if store != nil {
		after := store.Stats()
		t.casGets += after.Hits + after.Misses - before.Hits - before.Misses
		t.casHits += after.Hits - before.Hits
		t.casPuts += after.Puts - before.Puts
		t.casCorrupt += after.Corrupt - before.Corrupt
		if tr != nil {
			t.storeBytes = dirBytes(store.Dir())
		}
		s.retire(store)
	}
	return nil
}

// phase runs whole rounds until d has passed (at least one). The first phase
// of a run starts with one unmeasured round, which grows the heap and brings
// the page cache and the store's file system to the state every later round
// finds.
func (s *serve) phase(d time.Duration, tr *Tracer) (phaseResult, error) {
	if !s.warmedUp {
		if err := s.runRound(nil, &tally{}); err != nil {
			return phaseResult{}, err
		}
		s.warmedUp = true
	}
	var t tally
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for {
		if err := s.runRound(tr, &t); err != nil {
			return phaseResult{}, err
		}
		el := time.Since(start)
		if el+el/time.Duration(t.rounds)/2 >= d {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	t.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	t.gcs = ms1.NumGC - ms0.NumGC
	t.pauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return s.result(&t, tr), nil
}

func (s *serve) result(t *tally, tr *Tracer) phaseResult {
	subs := float64(t.subs)
	tp := subs / t.wall.Seconds()
	p50 := summary("latency_p50_ms", "ms", t.lat) // sorts t.lat
	p99 := single("latency_p99_ms", "ms", quantile(t.lat, 0.99))
	p99.N = len(t.lat)
	tpm := summary("throughput_per_s", "1/s", t.roundTP)
	tpm.Value = tp
	res := phaseResult{
		throughput: tp,
		endToEnd: []Metric{tpm, p50, p99,
			single("guest_minsn_per_s", "Minsn/s", float64(t.java+t.native)/1e6/t.wall.Seconds()),
			mean("rss_peak_mb", "MB", t.rss)},
	}
	phase := "untraced"
	if tr != nil {
		phase = "traced"
	}
	res.notes = append(res.notes, fmt.Sprintf("stream (%d items): %s", len(s.stream), formatShares(s.stream)))
	if s.cfg.Workload == "serve-warm" {
		variants := 0
		for _, it := range s.round {
			if !it.Repeat {
				variants++
			}
		}
		res.notes = append(res.notes, fmt.Sprintf("warm round: %d resubmits of stored apps, %d shared-library variants",
			len(s.round)-variants, variants))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%s phase: %d rounds, %d submissions in %.2fs: computed %d, verdict-cache %d, dedup %d, timeouts %d",
			phase, t.rounds, t.subs, t.wall.Seconds(), t.computed, t.verdictHits, t.deduped, t.timeouts))
	if tr == nil {
		return res
	}
	b := tr.breakdown()
	us := func(name string) float64 {
		return float64(b.Mean[name]) / float64(time.Microsecond)
	}
	selfMean := func(name string) float64 {
		return ratio(float64(b.Self[name]), float64(b.Count[name]))
	}
	r := &t.runner
	res.layer = map[string]float64{
		"runner.boots_per_service":       ratio(float64(r.Boots), float64(t.rounds)),
		"runner.restores_per_app":        ratio(float64(r.Resets), subs),
		"runner.guest_pages_per_restore": ratio(float64(r.GuestPagesReset), float64(r.Resets)),
		"runner.taint_pages_per_restore": ratio(float64(r.TaintPagesReset), float64(r.Resets)),
		"runner.install_us":              us("runner.install"),
		"fingerprint.install_us":         us("fingerprint.install"),
		"dex.validations_per_app":        ratio(float64(r.DexValidations), subs),
		"dex.check_hits_per_app":         ratio(float64(r.DexCheckHits), subs),
		"asm.assembles_per_app":          ratio(float64(r.AsmAssembles), subs),
		"asm.cache_hits_per_app":         ratio(float64(r.AsmCacheHits), subs),
		"service.submit_us":              selfMean("service.submit") / float64(time.Microsecond),
		"service.complete_ms":            selfMean("service.complete") / float64(time.Millisecond),
		"service.computed_share":         ratio(float64(t.computed), subs),
		"service.verdict_hit_share":      ratio(float64(t.verdictHits), subs),
		"service.dedup_share":            ratio(float64(t.deduped), subs),
		"cas.gets_per_app":               ratio(float64(t.casGets), subs),
		"cas.hit_ratio":                  ratio(float64(t.casHits), float64(t.casGets)),
		"cas.puts_per_app":               ratio(float64(t.casPuts), subs),
		"cas.corrupt":                    float64(t.casCorrupt),
		"cas.store_mb":                   float64(t.storeBytes) / (1 << 20),
		"dvm.java_insns_per_app":         ratio(float64(t.java), subs),
		"jni.crossings_per_app":          ratio(float64(t.crossings), subs),
		"jni.fused_share":                ratio(float64(t.fused), float64(t.crossings)),
		"jni.fuse_deopts_per_app":        ratio(float64(t.fuseDeopts), subs),
		"arm.native_insns_per_app":       ratio(float64(t.native), subs),
		"tracer.traced_insns_per_app":    ratio(float64(t.traced), subs),
		"summary.applied_per_app":        ratio(float64(t.sumApplied), subs),
		"summary.synths_per_app":         ratio(float64(r.SummarySynths), subs),
		"static.runs_per_app":            ratio(float64(r.StaticRuns), subs),
		"surface.events_per_app":         ratio(float64(t.events), subs),
		"surface.truncated_share":        ratio(float64(t.truncated), subs),
		"watchdog.budget_bound_share":    ratio(float64(t.timeouts), subs),
		"watchdog.budget_bound_ms":       ratio(t.timeoutMs, float64(t.timeouts)),
		"go.alloc_mb_per_app":            ratio(float64(t.alloc)/(1<<20), subs),
		"go.gc_per_kapp":                 ratio(1000*float64(t.gcs), subs),
		"go.gc_pause_us_per_app":         ratio(float64(t.pauseNs)/1e3, subs),
	}
	return res
}

// addRunnerStats folds one service's Runner counters into a phase total.
func addRunnerStats(dst *core.RunnerStats, s core.RunnerStats) {
	dst.Boots += s.Boots
	dst.Resets += s.Resets
	dst.GuestPagesReset += s.GuestPagesReset
	dst.TaintPagesReset += s.TaintPagesReset
	dst.StaticRuns += s.StaticRuns
	dst.DexValidations += s.DexValidations
	dst.DexCheckHits += s.DexCheckHits
	dst.AsmCacheHits += s.AsmCacheHits
	dst.AsmAssembles += s.AsmAssembles
	dst.SummarySynths += s.SummarySynths
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// empty truncates every regular file under dir whose path relative to dir
// keep does not list.
func empty(dir string, keep map[string]bool) {
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if rel, err := filepath.Rel(dir, path); err == nil && !keep[rel] {
				os.Truncate(path, 0)
			}
		}
		return nil
	})
}

// storeFiles lists the entries under a store directory, relative to it.
func storeFiles(dir string) map[string]bool {
	files := make(map[string]bool)
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if rel, err := filepath.Rel(dir, path); err == nil {
				files[rel] = true
			}
		}
		return nil
	})
	return files
}
