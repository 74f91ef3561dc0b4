// Package service turns the one-shot analyzer into analysis-as-a-service: a
// long-running submission pipeline in front of core.AnalyzeApp.
//
// Submit queues a submission on one bounded queue, read by a pool of workers.
// Each worker owns one fork-server Runner (boot once, restore per attempt)
// and takes a submission through four steps, installing the app once:
//
//  1. Fingerprint: restore, install, digest everything the Install added to
//     the warm System (display names excluded), and validate its classes.
//  2. Single-flight dedup: a submission whose digest is already in flight
//     joins that flight; every submitter receives the one result.
//  3. Short-circuit: with a persistent artifact store attached, a digest
//     already judged is answered from its cached verdict record.
//  4. Otherwise analyze: the first attempt of core.AnalyzeApp runs on the
//     System the fingerprint just installed.
//
// The store holds verdict records only, and only the service touches it:
// Runners validate classes and assemble libraries in memory on every
// install. Backpressure is the queue: when the workers fall behind, Submit
// blocks rather than buffering unboundedly.
//
// Results stream: as each submission completes, one JSON line is written to
// Options.Out (when set) and the submitter's channel is fulfilled. Caching
// never changes an outcome — a cached verdict replays the chain, verdict, and
// flow log byte-for-byte (the parity suite in the apps package holds cached
// service runs identical to uncached ones in every analysis mode).
package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/surface"
)

// Options configures a Service.
type Options struct {
	// Workers is the worker count; each worker owns one fork-server Runner.
	// Defaults to 1.
	Workers int
	// Cache is the persistent verdict store shared by every worker. Nil runs
	// the service fully in-memory: dedup still works, verdict
	// short-circuiting does not.
	Cache *cas.Store
	// Analyze is the base analysis configuration applied to every submission.
	// Its Runner field is owned by the service and overwritten per worker.
	Analyze core.AnalyzeOptions
	// Out, when set, receives one JSON line per completed submission, in
	// completion order.
	Out io.Writer
}

// queueDepth is how many queued submissions the job queue holds per worker; a
// full queue blocks Submit (backpressure).
const queueDepth = 4

// Stats counts pipeline activity since New.
type Stats struct {
	Submitted   int // submissions accepted
	Computed    int // analyses actually run by a worker
	VerdictHits int // submissions answered from a cached verdict record
	Deduped     int // submissions that joined an in-flight twin

	// Runner aggregates fork-server traffic across every worker's Runner
	// (snapshot resets, dex validations, assembler runs) plus the verdict
	// loads' absorbed cache faults. The Runner counters are folded in on
	// Close; before that, Runner holds only those cache faults.
	Runner core.RunnerStats
}

// Result is one completed submission.
type Result struct {
	Name   string         // submission display name
	Digest string         // content digest (Fingerprint.App)
	Report core.AppReport // full degradation chain and final outcome
	Diags  []string       // load-time dex validation diagnostics
	// Source tells where the verdict came from: "computed" (a worker ran the
	// analysis), "verdict-cache" (replayed from the artifact store), or
	// "dedup" (joined a concurrent identical submission).
	Source string
	Err    error // submission-level failure (closed service)
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
	ch   chan Result
}

// Service is a running analysis pipeline. Create with New, feed with Submit,
// drain and stop with Close.
type Service struct {
	opts    Options
	runners []*core.Runner
	queue   chan job
	wg      sync.WaitGroup

	// closeMu orders Submit against Close: Submit holds it for reading from
	// the closed check through its send, and Close takes it for writing
	// before closing the queue. Workers never take it, so a Submit blocked on
	// a full queue still drains.
	closeMu sync.RWMutex
	closed  bool

	flightMu sync.Mutex
	flights  map[string]*flight

	outMu sync.Mutex

	statsMu sync.Mutex
	stats   Stats

	// testFlightGap, when set (tests only), runs after a submission registers
	// its flight and before it checks the verdict cache or analyzes — the
	// window a concurrent twin submission must land in to exercise dedup.
	testFlightGap func(digest string)
}

// New boots one Runner per worker and starts the workers. It fails if any
// Runner fails to boot.
func New(opts Options) (*Service, error) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	s := &Service{
		opts:    opts,
		runners: make([]*core.Runner, opts.Workers),
		queue:   make(chan job, queueDepth*opts.Workers),
		flights: make(map[string]*flight),
	}
	errs := make([]error, opts.Workers)
	var boots sync.WaitGroup
	for i := range s.runners {
		boots.Add(1)
		go func(i int) {
			defer boots.Done()
			s.runners[i], errs[i] = core.NewRunner()
		}(i)
	}
	boots.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, r := range s.runners {
		s.wg.Add(1)
		go s.work(r)
	}
	return s, nil
}

// Submit queues the app for the workers. The returned channel delivers
// exactly one Result and is then closed. Submit blocks while the queue is
// full (backpressure); results are buffered, so submitting an entire corpus
// before reading any result cannot deadlock.
func (s *Service) Submit(spec core.AppSpec) <-chan Result {
	ch := make(chan Result, 1)
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		ch <- Result{Name: spec.Name, Err: fmt.Errorf("service: submit after Close")}
		close(ch)
		return ch
	}
	s.bumpStat(func(st *Stats) { st.Submitted++ })
	s.queue <- job{spec: spec, ch: ch}
	return ch
}

// work is one worker: it takes each queued submission through fingerprint,
// dedup, verdict replay, and analysis on its own Runner.
func (s *Service) work(runner *core.Runner) {
	defer s.wg.Done()
	for j := range s.queue {
		fp, diags, err := runner.Fingerprint(j.spec)
		if err != nil {
			// A failing Install is an analyzable outcome, not a pipeline
			// error: give it a synthetic digest and let the degradation
			// ladder produce the same contained fault report a study run
			// would. The display name joins the digest here — with no content
			// to hash there is nothing safe to dedup across names.
			fp = core.Fingerprint{App: cas.DigestStrings(
				"install-fault", j.spec.Name, j.spec.EntryClass, j.spec.EntryMethod, err.Error())}
			diags = []string{err.Error()}
		}

		// Single-flight: join an in-progress twin or register a new flight.
		s.flightMu.Lock()
		if fl, ok := s.flights[fp.App]; ok {
			fl.wait = append(fl.wait, waiter{name: j.spec.Name, ch: j.ch})
			s.flightMu.Unlock()
			s.bumpStat(func(st *Stats) { st.Deduped++ })
			continue
		}
		fl := &flight{digest: fp.App, diags: diags, wait: []waiter{{name: j.spec.Name, ch: j.ch}}}
		s.flights[fp.App] = fl
		s.flightMu.Unlock()

		if hook := s.testFlightGap; hook != nil {
			hook(fp.App)
		}

		// Verdict short-circuit: a digest this store has already judged under
		// these analysis options replays without running.
		if rep, ok := s.loadVerdict(fp); ok {
			s.bumpStat(func(st *Stats) { st.VerdictHits++ })
			s.finish(fl, rep, "verdict-cache")
			continue
		}

		aOpts := s.opts.Analyze
		aOpts.Runner = runner
		rep := core.AnalyzeApp(j.spec, aOpts)
		// Stored before finish retires the flight: a twin arriving later
		// either joins the flight or finds the record, never recomputes.
		s.storeVerdict(fp, rep)
		s.bumpStat(func(st *Stats) { st.Computed++ })
		s.finish(fl, rep, "computed")
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

// Close drains the queue, stops the workers, and folds their Runner stats
// into Stats. Submissions already accepted complete; Submit afterwards fails
// fast.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.closeMu.Unlock()
	s.wg.Wait()

	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	for _, r := range s.runners {
		s.stats.Runner.Add(r.Stats)
	}
}

// Stats snapshots the pipeline counters. Runner counters are folded in by
// Close.
func (s *Service) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

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

// --- persistent verdict records ---------------------------------------------

// KindVerdict holds verdictRecord payloads: the final outcome of one app
// digest under one analysis configuration. Keyed by verdictKey, not the bare
// app digest — mode, budget and flow-log capture all change what a run
// produces. The payload is a JSON head and a binary log block (see
// encode).
var KindVerdict = cas.Kind{Name: "verdict", Schema: "v7 service.verdictRecord json-head(chain,leaks,counters,surface+unreleased) log-block"}

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
	Chain    []attemptRecord `json:"chain"`
	Degraded bool            `json:"degraded,omitempty"`
	Thrown   bool            `json:"thrown,omitempty"`
	// FinalLog is not part of the JSON head: encode writes it as the
	// record's log block.
	FinalLog    []string    `json:"-"`
	Leaks       []core.Leak `json:"leaks,omitempty"`
	JavaInsns   uint64      `json:"java_insns"`
	NativeInsns uint64      `json:"native_insns"`
	// Surface is the final attempt's JNI surface map, persisted so a warm
	// verdict replay emits the exact map the computed run produced even
	// though the replay observes zero live crossings.
	Surface      *surface.Map `json:"surface,omitempty"`
	JNICrossings uint64       `json:"jni_crossings,omitempty"`
}

// encode lays the record out as its KindVerdict payload: a uvarint head
// length, the JSON head (every field but the flow log), then the log block —
// a uvarint line count followed by each line as a uvarint length and its
// bytes. The log is nearly all of a record's bytes, and as a block it decodes
// without a JSON scan.
func (r *verdictRecord) encode() ([]byte, error) {
	head, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	size := 2*binary.MaxVarintLen64 + len(head)
	for _, l := range r.FinalLog {
		size += 2 + len(l) // a line under 16 KiB takes a 2-byte length at most
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(head)))
	buf = append(buf, head...)
	buf = binary.AppendUvarint(buf, uint64(len(r.FinalLog)))
	for _, l := range r.FinalLog {
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		buf = append(buf, l...)
	}
	return buf, nil
}

// Ways a KindVerdict payload can be malformed. They are preallocated, so a
// payload refused on its lengths allocates nothing.
var (
	errRecordHead  = errors.New("service: verdict head length overruns the payload")
	errRecordCount = errors.New("service: verdict log line count overruns the payload")
	errRecordLine  = errors.New("service: verdict log line overruns the payload")
	errRecordTail  = errors.New("service: trailing bytes after the verdict log")
)

// decodeVerdictRecord is encode's inverse. Every length is checked against
// the bytes that remain before anything is allocated or sliced. The log
// block becomes one string and each line is a substring of it.
func decodeVerdictRecord(p []byte) (verdictRecord, error) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) {
		return verdictRecord{}, errRecordHead
	}
	head, block := p[k:k+int(n)], p[k+int(n):]
	count, k := binary.Uvarint(block)
	// Every line takes at least its one-byte length, so a count past the
	// remaining bytes cannot be honest.
	if k <= 0 || count > uint64(len(block)-k) {
		return verdictRecord{}, errRecordCount
	}
	block = block[k:]
	// rec escapes into json.Unmarshal, so it is declared only past the
	// length checks.
	var rec verdictRecord
	if err := json.Unmarshal(head, &rec); err != nil {
		return verdictRecord{}, err
	}
	if count > 0 {
		log := string(block)
		rec.FinalLog = make([]string, count)
		off := 0
		for i := range rec.FinalLog {
			l, k := binary.Uvarint(block[off:])
			if k <= 0 || l > uint64(len(block)-off-k) {
				return verdictRecord{}, errRecordLine
			}
			off += k
			rec.FinalLog[i] = log[off : off+int(l)]
			off += int(l)
		}
		block = block[off:]
	}
	if len(block) != 0 {
		return verdictRecord{}, errRecordTail
	}
	return rec, nil
}

// newVerdictRecord captures what a replay of rep needs.
func newVerdictRecord(rep core.AppReport) verdictRecord {
	rec := verdictRecord{
		Degraded:     rep.Degraded,
		Thrown:       rep.Final.Result.Thrown,
		FinalLog:     rep.Final.Result.LogLines,
		Leaks:        rep.Final.Result.Leaks,
		JavaInsns:    rep.Final.Result.JavaInsns,
		NativeInsns:  rep.Final.Result.NativeInsns,
		Surface:      rep.Final.Result.Surface,
		JNICrossings: rep.Final.Result.JNICrossings,
	}
	for _, att := range rep.Chain {
		rec.Chain = append(rec.Chain, attemptRecord{
			Mode:    att.Mode.String(),
			Verdict: att.Result.Verdict.String(),
			Fault:   att.Result.Fault.Portable(),
		})
	}
	return rec
}

// report replays the record as an AppReport. A record with no chain, or one
// naming a mode or verdict this build does not know, is malformed.
func (r *verdictRecord) report() (core.AppReport, error) {
	if len(r.Chain) == 0 {
		return core.AppReport{}, errors.New("service: verdict record without a chain")
	}
	rep := core.AppReport{Degraded: r.Degraded}
	for _, ar := range r.Chain {
		m, okm := core.ModeFromName(ar.Mode)
		v, okv := core.VerdictFromName(ar.Verdict)
		if !okm || !okv {
			return core.AppReport{}, fmt.Errorf("service: verdict record names mode %q, verdict %q", ar.Mode, ar.Verdict)
		}
		rep.Chain = append(rep.Chain, core.Attempt{
			Mode:   m,
			Result: core.RunResult{Verdict: v, Fault: ar.Fault.Fault()},
		})
	}
	final := &rep.Chain[len(rep.Chain)-1]
	final.Result.Thrown = r.Thrown
	final.Result.LogLines = r.FinalLog
	final.Result.Leaks = r.Leaks
	final.Result.JavaInsns = r.JavaInsns
	final.Result.NativeInsns = r.NativeInsns
	final.Result.Surface = r.Surface
	final.Result.JNICrossings = r.JNICrossings
	rep.Final = *final
	return rep, nil
}

// verdictKey binds the app digest to every analysis option that can change
// the outcome or its captured artifacts.
func verdictKey(fp core.Fingerprint, o core.AnalyzeOptions) string {
	mode := o.Mode
	if mode == 0 {
		mode = core.ModeNDroid
	}
	return cas.DigestStrings(fp.App, mode.String(),
		fmt.Sprintf("budget=%d", o.Budget),
		fmt.Sprintf("flowlog=%t", o.FlowLog))
}

func (s *Service) storeVerdict(fp core.Fingerprint, rep core.AppReport) {
	if s.opts.Cache == nil {
		return
	}
	rec := newVerdictRecord(rep)
	payload, err := rec.encode()
	if err != nil {
		return
	}
	// Best-effort: a failed Put costs the short-circuit, nothing else.
	_ = s.opts.Cache.PutBytes(KindVerdict, verdictKey(fp, s.opts.Analyze), payload)
}

// loadVerdict replays a cached verdict record as an AppReport. Any miss —
// clean, or corrupt (a bad frame or a payload that does not decode; evicted
// and counted) — sends the submission on to analysis instead.
func (s *Service) loadVerdict(fp core.Fingerprint) (core.AppReport, bool) {
	if s.opts.Cache == nil {
		return core.AppReport{}, false
	}
	var rep core.AppReport
	ok, err := s.opts.Cache.GetBytes(KindVerdict, verdictKey(fp, s.opts.Analyze), func(p []byte) error {
		rec, err := decodeVerdictRecord(p)
		if err == nil {
			rep, err = rec.report()
		}
		return err
	})
	if err != nil {
		s.bumpStat(func(st *Stats) { st.Runner.CacheFaults++ })
	}
	return rep, ok
}
