// Package service turns the one-shot analyzer into analysis-as-a-service: a
// long-running submission pipeline in front of core.AnalyzeApp.
//
// A submission is fingerprinted first (content digest of everything its
// Install adds to the warm System — display names excluded), and the digest
// drives the whole pipeline:
//
//   - Routing: submissions are sharded digest->worker, so identical content
//     always lands on the same worker's snapshot-cloned Runner and its warm
//     in-memory caches.
//   - Single-flight dedup: concurrent submissions of the same digest run the
//     analysis once; every submitter receives the one result.
//   - Short-circuit: with a persistent artifact store attached, a re-submitted
//     digest is answered from its cached verdict record without running.
//
// Each shard worker owns one fork-server Runner (boot once, restore per
// attempt) wired to the shared artifact store, so static results, assembled
// library images, and dex validation verdicts flow between shards and across
// process lifetimes. Backpressure is the shard queue: when a worker falls
// behind, Submit blocks rather than buffering unboundedly.
//
// Results stream: as each submission completes, one JSON line is written to
// Options.Out (when set) and the submitter's channel is fulfilled. Caching
// never changes an outcome — a cached verdict replays the chain, verdict, and
// flow log byte-for-byte (the parity suite in the apps package holds cached
// service runs identical to uncached ones in every analysis mode).
package service

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/static"
	"repro/internal/surface"
)

// Options configures a Service.
type Options struct {
	// Workers is the shard count; each shard owns one fork-server Runner.
	// Defaults to 1.
	Workers int
	// Cache is the persistent artifact store shared by every shard and the
	// fingerprint stage. Nil runs the service fully in-memory: sharding and
	// dedup still work, verdict short-circuiting does not.
	Cache *cas.Store
	// Analyze is the base analysis configuration applied to every submission.
	// Its Runner field is owned by the service and overwritten per shard.
	Analyze core.AnalyzeOptions
	// Out, when set, receives one JSON line per completed submission, in
	// completion order.
	Out io.Writer
}

// queueDepth bounds each shard's submission queue; a full queue blocks Submit
// (backpressure).
const queueDepth = 4

// Stats counts pipeline activity since New.
type Stats struct {
	Submitted   int // submissions accepted
	Computed    int // analyses actually run on a shard
	VerdictHits int // submissions answered from a cached verdict record
	Deduped     int // submissions that joined an in-flight twin

	// Runner aggregates fork-server and artifact traffic across the
	// fingerprint runner and every shard (snapshot resets, static/asm/dex
	// cache hits, absorbed cache faults). Live shard counters are folded in
	// on Close.
	Runner core.RunnerStats
}

// Result is one completed submission.
type Result struct {
	Name   string         // submission display name
	Digest string         // content digest (Fingerprint.App)
	Report core.AppReport // full degradation chain and final outcome
	Diags  []string       // load-time dex validation diagnostics
	// Source tells where the verdict came from: "computed" (a shard ran the
	// analysis), "verdict-cache" (replayed from the artifact store), or
	// "dedup" (joined a concurrent identical submission).
	Source string
	Err    error // submission-level failure (install fault, closed service)
}

type waiter struct {
	name string
	ch   chan Result
}

// flight is one in-progress computation of a digest; concurrent identical
// submissions append themselves as waiters instead of starting a twin run.
type flight struct {
	digest string
	diags  []string
	wait   []waiter
}

type job struct {
	spec core.AppSpec
	fp   core.Fingerprint
	fl   *flight
}

type shard struct {
	queue chan job
	stats core.RunnerStats
}

// Service is a running analysis pipeline. Create with New, feed with Submit,
// drain and stop with Close.
type Service struct {
	opts   Options
	shards []*shard
	wg     sync.WaitGroup

	digestMu sync.Mutex
	digester *core.Runner // fingerprint + validation stage (serialized)

	flightMu sync.Mutex
	flights  map[string]*flight
	closed   bool

	outMu sync.Mutex

	statsMu sync.Mutex
	stats   Stats

	// testFlightGap, when set (tests only), runs after a submission registers
	// its flight and before it checks the verdict cache or enqueues — the
	// window a concurrent twin submission must land in to exercise dedup.
	testFlightGap func(digest string)
}

// New boots the fingerprint runner and one Runner per shard, all wired to
// opts.Cache, and starts the shard workers.
func New(opts Options) (*Service, error) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	digester, err := core.NewCachedRunner(opts.Cache)
	if err != nil {
		return nil, err
	}
	s := &Service{
		opts:     opts,
		digester: digester,
		flights:  make(map[string]*flight),
	}
	for i := 0; i < opts.Workers; i++ {
		sh := &shard{queue: make(chan job, queueDepth)}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go s.shardLoop(sh)
	}
	return s, nil
}

// Submit fingerprints the app and routes it through the pipeline. The
// returned channel delivers exactly one Result and is then closed. Submit
// blocks while the target shard's queue is full (backpressure); results are
// buffered, so submitting an entire corpus before reading any result cannot
// deadlock.
func (s *Service) Submit(spec core.AppSpec) <-chan Result {
	ch := make(chan Result, 1)
	fail := func(err error) <-chan Result {
		ch <- Result{Name: spec.Name, Err: err}
		close(ch)
		return ch
	}

	s.flightMu.Lock()
	if s.closed {
		s.flightMu.Unlock()
		return fail(fmt.Errorf("service: submit after Close"))
	}
	s.flightMu.Unlock()

	s.bumpStat(func(st *Stats) { st.Submitted++ })

	s.digestMu.Lock()
	fp, diags, err := s.digester.Fingerprint(spec)
	s.digestMu.Unlock()
	if err != nil {
		// A failing Install is an analyzable outcome, not a pipeline error:
		// route it to a shard under a synthetic digest and let the
		// degradation ladder produce the same contained fault report a study
		// run would. The display name joins the digest here — with no content
		// to hash there is nothing safe to dedup across names.
		fp = core.Fingerprint{App: cas.DigestStrings(
			"install-fault", spec.Name, spec.EntryClass, spec.EntryMethod, err.Error())}
		fp.Static = fp.App
		diags = []string{err.Error()}
	}

	// Single-flight: join an in-progress twin or register a new flight.
	s.flightMu.Lock()
	if fl, ok := s.flights[fp.App]; ok {
		fl.wait = append(fl.wait, waiter{name: spec.Name, ch: ch})
		s.flightMu.Unlock()
		s.bumpStat(func(st *Stats) { st.Deduped++ })
		return ch
	}
	fl := &flight{digest: fp.App, diags: diags, wait: []waiter{{name: spec.Name, ch: ch}}}
	s.flights[fp.App] = fl
	s.flightMu.Unlock()

	if hook := s.testFlightGap; hook != nil {
		hook(fp.App)
	}

	// Verdict short-circuit: a digest this store has already judged under
	// these analysis options replays without running.
	if rep, ok := s.loadVerdict(fp); ok {
		rep.Name = spec.Name
		s.bumpStat(func(st *Stats) { st.VerdictHits++ })
		s.finish(fl, rep, "verdict-cache")
		return ch
	}

	s.shards[shardIndex(fp.App, len(s.shards))].queue <- job{spec: spec, fp: fp, fl: fl}
	return ch
}

// shardLoop is one worker: a fork-server Runner serving its queue in order.
func (s *Service) shardLoop(sh *shard) {
	defer s.wg.Done()
	// A failed warm boot degrades the shard to fresh-System attempts; the
	// per-attempt path reports any persistent boot fault itself.
	runner, _ := core.NewCachedRunner(s.opts.Cache)
	for j := range sh.queue {
		aOpts := s.opts.Analyze
		aOpts.Runner = runner
		rep := core.AnalyzeApp(j.spec, aOpts)
		s.storeVerdict(j.fp, rep)
		s.bumpStat(func(st *Stats) { st.Computed++ })
		s.finish(j.fl, rep, "computed")
	}
	if runner != nil {
		sh.stats = runner.Stats
	}
}

// finish retires a flight: removes it from the in-flight table and fulfills
// every waiter (the originator with source, twins as "dedup").
func (s *Service) finish(fl *flight, rep core.AppReport, source string) {
	s.flightMu.Lock()
	delete(s.flights, fl.digest)
	waiters := fl.wait
	s.flightMu.Unlock()

	for i, w := range waiters {
		src := source
		if i > 0 {
			src = "dedup"
		}
		r := rep
		r.Name = w.name
		res := Result{Name: w.name, Digest: fl.digest, Report: r, Diags: fl.diags, Source: src}
		s.emit(res)
		w.ch <- res
		close(w.ch)
	}
}

// Close drains the shard queues, stops the workers, and folds their Runner
// stats into Stats. Submissions already accepted complete; Submit afterwards
// fails fast.
func (s *Service) Close() {
	s.flightMu.Lock()
	if s.closed {
		s.flightMu.Unlock()
		return
	}
	s.closed = true
	s.flightMu.Unlock()

	for _, sh := range s.shards {
		close(sh.queue)
	}
	s.wg.Wait()

	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.stats.Runner.Add(s.digester.Stats)
	for _, sh := range s.shards {
		s.stats.Runner.Add(sh.stats)
	}
}

// Stats snapshots the pipeline counters. Shard Runner counters are folded in
// by Close; before that, Runner covers only the fingerprint stage.
func (s *Service) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// Cache exposes the service's artifact store (nil when running in-memory).
func (s *Service) Cache() *cas.Store { return s.opts.Cache }

func (s *Service) bumpStat(f func(*Stats)) {
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}

// resultLine is the streamed JSON-lines schema, one object per completed
// submission.
type resultLine struct {
	App      string   `json:"app"`
	Digest   string   `json:"digest"`
	Verdict  string   `json:"verdict"`
	Chain    string   `json:"chain"`
	Degraded bool     `json:"degraded,omitempty"`
	Source   string   `json:"source"`
	Leaks    int      `json:"leaks"`
	LogLines int      `json:"log_lines"`
	Fault    string   `json:"fault,omitempty"`
	Diags    []string `json:"diags,omitempty"`
	Error    string   `json:"error,omitempty"`
	// Surface summary: unique JNI boundaries discovered, observer events
	// recorded, and whether the map hit its event budget (flood truncation).
	SurfaceBoundaries int  `json:"surface_boundaries,omitempty"`
	SurfaceEvents     int  `json:"surface_events,omitempty"`
	SurfaceTruncated  bool `json:"surface_truncated,omitempty"`
}

func (s *Service) emit(res Result) {
	if s.opts.Out == nil {
		return
	}
	line := resultLine{
		App:      res.Name,
		Digest:   res.Digest,
		Source:   res.Source,
		Diags:    res.Diags,
		Degraded: res.Report.Degraded,
	}
	if res.Err != nil {
		line.Error = res.Err.Error()
	} else {
		line.Verdict = res.Report.Verdict().String()
		line.Chain = res.Report.ChainString()
		line.Leaks = len(res.Report.Final.Result.Leaks)
		line.LogLines = len(res.Report.Final.Result.LogLines)
		if f := res.Report.Final.Result.Fault; f != nil {
			line.Fault = f.Error()
		}
		if m := res.Report.Final.Result.Surface; m != nil {
			line.SurfaceBoundaries = m.UniqueBoundaries
			line.SurfaceEvents = m.Events
			line.SurfaceTruncated = m.Truncated
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.outMu.Lock()
	s.opts.Out.Write(append(b, '\n'))
	s.outMu.Unlock()
}

// shardIndex routes a digest to a shard. Identical content always lands on
// the same worker, so its in-memory static cache and asm memo stay hot.
func shardIndex(digest string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(digest))
	return int(h.Sum64() % uint64(n))
}

// --- persistent verdict records ---------------------------------------------

// KindVerdict holds verdictRecord payloads: the final outcome of one app
// digest under one analysis configuration. Keyed by verdictKey, not the bare
// app digest — mode, budget, fusion, flow-log capture, and static level all
// change what a run produces.
var KindVerdict = cas.Kind{Name: "verdict", Schema: "v4 service.verdictRecord chain,final_log,leaks,counters,surface,static"}

type attemptRecord struct {
	Mode    string          `json:"mode"`
	Verdict string          `json:"verdict"`
	Fault   *fault.Portable `json:"fault,omitempty"`
}

// verdictRecord is the persistent form of an AppReport. The final attempt
// keeps its full flow log so a replayed verdict is byte-identical to the
// computed one; intermediate chain attempts keep mode, verdict, and fault
// (what ChainString and the study tallies consume).
type verdictRecord struct {
	Chain       []attemptRecord `json:"chain"`
	Degraded    bool            `json:"degraded,omitempty"`
	Thrown      bool            `json:"thrown,omitempty"`
	FinalLog    []string        `json:"final_log,omitempty"`
	LogHash     string          `json:"log_hash"`
	Leaks       []core.Leak     `json:"leaks,omitempty"`
	JavaInsns   uint64          `json:"java_insns"`
	NativeInsns uint64          `json:"native_insns"`
	// Surface is the final attempt's JNI surface map, persisted so a warm
	// verdict replay emits the exact map the computed run produced even
	// though the replay observes zero live crossings.
	Surface      *surface.Map `json:"surface,omitempty"`
	JNICrossings uint64       `json:"jni_crossings,omitempty"`
	// Static is the final attempt's pre-analysis result (nil with the static
	// pass off), persisted for the same reason: a replay carries the lint
	// findings and taint-free counts without re-running the pass.
	Static *static.Portable `json:"static,omitempty"`
}

// verdictKey binds the app digest to every analysis option that can change
// the outcome or its captured artifacts.
func verdictKey(fp core.Fingerprint, o core.AnalyzeOptions) string {
	mode := o.Mode
	if mode == 0 {
		mode = core.ModeNDroid
	}
	return cas.DigestStrings(fp.App, mode.String(),
		fmt.Sprintf("fuse=%d", int(o.Fuse)),
		fmt.Sprintf("budget=%d", o.Budget),
		fmt.Sprintf("flowlog=%t", o.FlowLog),
		fmt.Sprintf("static=%d", int(o.Static)),
		fmt.Sprintf("surface=%d", int(o.Surface)))
}

func (s *Service) storeVerdict(fp core.Fingerprint, rep core.AppReport) {
	if s.opts.Cache == nil {
		return
	}
	rec := verdictRecord{
		Degraded:     rep.Degraded,
		Thrown:       rep.Final.Result.Thrown,
		FinalLog:     rep.Final.Result.LogLines,
		LogHash:      cas.DigestStrings(rep.Final.Result.LogLines...),
		Leaks:        rep.Final.Result.Leaks,
		JavaInsns:    rep.Final.Result.JavaInsns,
		NativeInsns:  rep.Final.Result.NativeInsns,
		Surface:      rep.Final.Result.Surface,
		JNICrossings: rep.Final.Result.JNICrossings,
	}
	if sr := rep.Final.Result.Static; sr != nil {
		rec.Static = sr.Portable()
	}
	for _, att := range rep.Chain {
		rec.Chain = append(rec.Chain, attemptRecord{
			Mode:    att.Mode.String(),
			Verdict: att.Result.Verdict.String(),
			Fault:   att.Result.Fault.Portable(),
		})
	}
	// Best-effort: a failed Put costs the short-circuit, nothing else.
	_ = s.opts.Cache.Put(KindVerdict, verdictKey(fp, s.opts.Analyze), &rec)
}

// loadVerdict replays a cached verdict record as an AppReport. Any miss —
// clean, corrupt (evicted and counted), or structurally unresolvable — sends
// the submission to a shard instead.
func (s *Service) loadVerdict(fp core.Fingerprint) (core.AppReport, bool) {
	if s.opts.Cache == nil {
		return core.AppReport{}, false
	}
	var rec verdictRecord
	ok, err := s.opts.Cache.Get(KindVerdict, verdictKey(fp, s.opts.Analyze), &rec)
	if err != nil {
		s.bumpStat(func(st *Stats) { st.Runner.CacheFaults++ })
	}
	if !ok || len(rec.Chain) == 0 {
		return core.AppReport{}, false
	}
	rep := core.AppReport{Degraded: rec.Degraded}
	for _, ar := range rec.Chain {
		m, okm := core.ModeFromName(ar.Mode)
		v, okv := core.VerdictFromName(ar.Verdict)
		if !okm || !okv {
			// Unknown name: the record predates a rename. Treat as a miss.
			s.opts.Cache.Evict(KindVerdict, verdictKey(fp, s.opts.Analyze))
			return core.AppReport{}, false
		}
		rep.Chain = append(rep.Chain, core.Attempt{
			Mode:   m,
			Result: core.RunResult{Verdict: v, Fault: ar.Fault.Fault()},
		})
	}
	final := &rep.Chain[len(rep.Chain)-1]
	final.Result.Thrown = rec.Thrown
	final.Result.LogLines = rec.FinalLog
	final.Result.Leaks = rec.Leaks
	final.Result.JavaInsns = rec.JavaInsns
	final.Result.NativeInsns = rec.NativeInsns
	final.Result.Surface = rec.Surface
	final.Result.JNICrossings = rec.JNICrossings
	if rec.Static != nil {
		final.Result.Static = rec.Static.Rehydrate()
	}
	rep.Final = *final
	return rep, true
}
