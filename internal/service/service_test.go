package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/surface"
)

const testBudget = 1 << 21

func mustApp(t *testing.T, name string) *apps.App {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("%s missing from registry", name)
	}
	return app
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightDedup holds a flight open at the injected gap and lands a
// twin submission in the window: the analysis must run once, both submitters
// must receive the result, and the twin must be labeled a dedup.
func TestSingleFlightDedup(t *testing.T) {
	app := mustApp(t, "case1")
	svc, err := service.New(service.Options{
		Workers: 2,
		Analyze: core.AnalyzeOptions{Budget: testBudget, FlowLog: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	entered := make(chan string, 1)
	gate := make(chan struct{})
	svc.SetFlightGap(func(digest string) {
		entered <- digest
		<-gate
	})

	firstCh := make(chan service.Result, 1)
	go func() { firstCh <- <-svc.Submit(app.Spec()) }()
	digest := <-entered

	// The twin carries a different display name; content digest is identical,
	// so it must join the open flight rather than start its own.
	twin := app.Spec()
	twin.Name = "case1-under-alias"
	secondCh := make(chan service.Result, 1)
	go func() { secondCh <- <-svc.Submit(twin) }()
	waitFor(t, "twin to join the flight", func() bool { return svc.Stats().Deduped == 1 })

	close(gate)
	first, second := <-firstCh, <-secondCh
	if first.Err != nil || second.Err != nil {
		t.Fatalf("errs: %v / %v", first.Err, second.Err)
	}
	if first.Digest != digest || second.Digest != digest {
		t.Errorf("digests diverge: %s / %s / %s", digest, first.Digest, second.Digest)
	}
	if first.Source != "computed" || second.Source != "dedup" {
		t.Errorf("sources = %q / %q, want computed / dedup", first.Source, second.Source)
	}
	if second.Name != "case1-under-alias" || second.Report.Name != "case1-under-alias" {
		t.Errorf("dedup result lost its submitter's name: %q / %q", second.Name, second.Report.Name)
	}
	wantLog := strings.Join(first.Report.Final.Result.LogLines, "\n")
	gotLog := strings.Join(second.Report.Final.Result.LogLines, "\n")
	if second.Report.Verdict() != first.Report.Verdict() || gotLog != wantLog {
		t.Error("dedup twin's outcome differs from the computed one")
	}
	st := svc.Stats()
	if st.Computed != 1 || st.Submitted != 2 || st.Deduped != 1 {
		t.Errorf("stats = %+v, want 1 computed / 2 submitted / 1 deduped", st)
	}
}

// TestVerdictShortCircuit: a digest judged once under a store is answered
// from its verdict record by a later service over the same store — with a
// byte-identical report and zero analyses run.
func TestVerdictShortCircuit(t *testing.T) {
	app := mustApp(t, "qqphonebook")
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	aOpts := core.AnalyzeOptions{Budget: testBudget, FlowLog: true}

	svc1, err := service.New(service.Options{Cache: store, Analyze: aOpts})
	if err != nil {
		t.Fatal(err)
	}
	cold := <-svc1.Submit(app.Spec())
	svc1.Close()
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.Source != "computed" {
		t.Fatalf("cold source = %q", cold.Source)
	}

	svc2, err := service.New(service.Options{Cache: store, Analyze: aOpts})
	if err != nil {
		t.Fatal(err)
	}
	warm := <-svc2.Submit(app.Spec())
	svc2.Close()
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if warm.Source != "verdict-cache" {
		t.Fatalf("warm source = %q, want verdict-cache", warm.Source)
	}
	if st := svc2.Stats(); st.Computed != 0 || st.VerdictHits != 1 {
		t.Errorf("warm stats = %+v, want 0 computed / 1 verdict hit", st)
	}

	cr, wr := cold.Report, warm.Report
	if wr.Verdict() != cr.Verdict() || wr.Degraded != cr.Degraded || wr.ChainString() != cr.ChainString() {
		t.Errorf("replayed chain %s (degraded=%t) vs computed %s (degraded=%t)",
			wr.ChainString(), wr.Degraded, cr.ChainString(), cr.Degraded)
	}
	if got, want := strings.Join(wr.Final.Result.LogLines, "\n"), strings.Join(cr.Final.Result.LogLines, "\n"); got != want {
		t.Error("replayed flow log is not byte-identical to the computed one")
	}
	if wr.Final.Result.JavaInsns != cr.Final.Result.JavaInsns ||
		wr.Final.Result.NativeInsns != cr.Final.Result.NativeInsns ||
		len(wr.Final.Result.Leaks) != len(cr.Final.Result.Leaks) {
		t.Error("replayed counters diverge from the computed run")
	}

	// A different analysis configuration must not resolve to the record.
	bOpts := aOpts
	bOpts.Mode = core.ModeTaintDroid
	svc3, err := service.New(service.Options{Cache: store, Analyze: bOpts})
	if err != nil {
		t.Fatal(err)
	}
	other := <-svc3.Submit(app.Spec())
	svc3.Close()
	if other.Err != nil {
		t.Fatal(other.Err)
	}
	if other.Source != "computed" {
		t.Errorf("taintdroid-mode source = %q: verdict record leaked across analysis options", other.Source)
	}
}

// TestOldVerdictSchemaRecomputes: a verdict record stored under a retired
// verdict schema is a clean miss under the current one, so the service
// recomputes the app instead of replaying the stale record. v4 still carried
// a static pre-analysis record; v5 surface maps carried no unreleased-handle
// findings, so a v5 replay of hostile-pinswap would hide its finding; v6 was
// all JSON, flow log and log hash included. Each old record is a well-framed
// entry under its own schema's key, so the miss must be clean: a record the
// current schema's key still reached would fail to decode and count as a
// corrupt entry.
func TestOldVerdictSchemaRecomputes(t *testing.T) {
	app := mustApp(t, "hostile-pinswap")
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	aOpts := core.AnalyzeOptions{Budget: testBudget, FlowLog: true}
	submit := func() (service.Result, service.Stats) {
		svc, err := service.New(service.Options{Cache: store, Analyze: aOpts})
		if err != nil {
			t.Fatal(err)
		}
		res := <-svc.Submit(app.Spec())
		svc.Close()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res, svc.Stats()
	}
	cold, _ := submit()
	if cold.Source != "computed" {
		t.Fatalf("cold source = %q", cold.Source)
	}
	if !hasUnreleased(cold.Report.Final.Result.Surface) {
		t.Fatal("computed surface map carries no unreleased-handle finding; the v5 case would be vacuous")
	}

	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := r.Fingerprint(app.Spec())
	if err != nil {
		t.Fatal(err)
	}
	key := service.VerdictKey(fp, aOpts)
	for _, old := range []struct {
		schema     string
		static     bool
		unreleased bool
	}{
		{"v4 service.verdictRecord chain,final_log,leaks,counters,surface,static", true, false},
		{"v5 service.verdictRecord chain,final_log,leaks,counters,surface", false, false},
		{"v6 service.verdictRecord chain,final_log,leaks,counters,surface+unreleased", false, true},
	} {
		// Move the record to the old schema, as a store written before the
		// bump holds it: all JSON, with the flow log and its hash inline; a
		// surface map without findings before v6, and for v4 the static
		// record it wrote.
		var rec map[string]json.RawMessage
		if ok, err := store.GetBytes(service.KindVerdict, key, func(p []byte) (err error) {
			rec, err = service.LegacyVerdictJSON(p)
			return err
		}); !ok || err != nil {
			t.Fatalf("no current-schema record: %v, %v", ok, err)
		}
		if !old.unreleased {
			var m surface.Map
			if err := json.Unmarshal(rec["surface"], &m); err != nil {
				t.Fatal(err)
			}
			for i := range m.Boundaries {
				m.Boundaries[i].Unreleased = nil
			}
			rec["surface"] = m.Bytes()
		}
		if old.static {
			rec["static"] = json.RawMessage(`{"methods":2,"native_funcs":2,"native_pages":1,"taint_free_pages":0,"taint_free":false,"taint_free_names":["Lcom/hostile/pinswap/Main;.checksum"]}`)
		}
		store.Evict(service.KindVerdict, key)
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.PutBytes(cas.Kind{Name: service.KindVerdict.Name, Schema: old.schema}, key, payload); err != nil {
			t.Fatal(err)
		}

		corrupt := store.Stats().Corrupt
		again, st := submit()
		if again.Source != "computed" || st.VerdictHits != 0 || st.Computed != 1 {
			t.Fatalf("%s: source %q with %d verdict hits, %d computed: an old record was replayed",
				old.schema[:2], again.Source, st.VerdictHits, st.Computed)
		}
		if st.Runner.CacheFaults != 0 || store.Stats().Corrupt != corrupt {
			t.Fatalf("%s: the old record was reached and rejected as corrupt (%d cache faults), not a clean miss",
				old.schema[:2], st.Runner.CacheFaults)
		}
		if got, want := strings.Join(again.Report.Final.Result.LogLines, "\n"), strings.Join(cold.Report.Final.Result.LogLines, "\n"); got != want {
			t.Errorf("%s: recomputed flow log differs from the first run's", old.schema[:2])
		}
		if !again.Report.Final.Result.Surface.Equal(cold.Report.Final.Result.Surface) {
			t.Errorf("%s: recomputed surface map differs from the first run's", old.schema[:2])
		}
	}
}

func hasUnreleased(m *surface.Map) bool {
	for _, b := range m.Boundaries {
		if len(b.Unreleased) > 0 {
			return true
		}
	}
	return false
}

// TestStreamingOutput: one parseable JSON line per completed submission, in
// completion order, carrying verdict and provenance.
func TestStreamingOutput(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	svc, err := service.New(service.Options{
		Workers: 2,
		Cache:   store,
		Out:     &out,
		Analyze: core.AnalyzeOptions{Budget: testBudget, FlowLog: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus := []*apps.App{mustApp(t, "case1"), mustApp(t, "benign"), mustApp(t, "case1")}
	var chans []<-chan service.Result
	for _, app := range corpus {
		chans = append(chans, svc.Submit(app.Spec()))
	}
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	svc.Close()

	verdicts := map[string]string{}
	lines := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		lines++
		var line struct {
			App     string `json:"app"`
			Digest  string `json:"digest"`
			Verdict string `json:"verdict"`
			Chain   string `json:"chain"`
			Source  string `json:"source"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable stream line %q: %v", sc.Text(), err)
		}
		if line.App == "" || line.Digest == "" || line.Verdict == "" || line.Source == "" {
			t.Errorf("incomplete stream line: %q", sc.Text())
		}
		verdicts[line.App] = line.Verdict
	}
	if lines != len(corpus) {
		t.Errorf("streamed %d lines for %d submissions", lines, len(corpus))
	}
	if verdicts["case1"] != "leak" || verdicts["benign"] != "clean" {
		t.Errorf("streamed verdicts %v", verdicts)
	}
}

// TestShardRoutingStable: whichever of several workers fingerprints a
// submission, the same content always yields the same digest, and without a
// store every sequential resubmission is analyzed again.
func TestShardRoutingStable(t *testing.T) {
	app := mustApp(t, "benign")
	svc, err := service.New(service.Options{
		Workers: 4,
		Analyze: core.AnalyzeOptions{Budget: testBudget},
	})
	if err != nil {
		t.Fatal(err)
	}
	var digest string
	for i := 0; i < 3; i++ {
		res := <-svc.Submit(app.Spec())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if digest == "" {
			digest = res.Digest
		} else if res.Digest != digest {
			t.Fatalf("digest moved between submissions: %s vs %s", res.Digest, digest)
		}
	}
	svc.Close()
	// Uncached service: no verdict records, so all three ran.
	if st := svc.Stats(); st.Computed != 3 {
		t.Fatalf("computed = %d, want 3 (no verdict store attached)", st.Computed)
	}
}

// TestFingerprintRestoreFaultNotBlamedOnApp: a snapshot restore that fails in
// a worker's fingerprint step is the Runner's fault, not the submission's. The
// step reboots and retries, so the app keeps its content digest (and with it dedup
// and verdict caching) and its diagnostics gain no internal-error. hostile-dex
// is used because its malformed class gives it diagnostics to compare.
func TestFingerprintRestoreFaultNotBlamedOnApp(t *testing.T) {
	defer fault.Reset()
	app := mustApp(t, "hostile-dex")
	submit := func() service.Result {
		t.Helper()
		svc, err := service.New(service.Options{Analyze: core.AnalyzeOptions{Budget: testBudget}})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		res := <-svc.Submit(app.Spec())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	fault.Reset()
	want := submit()
	if len(want.Diags) == 0 {
		t.Fatal("hostile-dex has no diagnostics; the comparison below would be vacuous")
	}

	// The fingerprint step is the submission's only restore (its first
	// attempt runs on the installed System), so it consumes the injection.
	if err := fault.Arm(core.SiteSnapshotRestore, fault.UnmappedAccess); err != nil {
		t.Fatal(err)
	}
	got := submit()
	if n := fault.Fired(core.SiteSnapshotRestore); n != 1 {
		t.Fatalf("restore site fired %d times, want 1", n)
	}
	if got.Digest != want.Digest {
		t.Errorf("digest under restore fault = %s, unarmed %s", got.Digest, want.Digest)
	}
	if g, w := strings.Join(got.Diags, "\n"), strings.Join(want.Diags, "\n"); g != w {
		t.Errorf("diags under restore fault:\n%s\nunarmed:\n%s", g, w)
	}
}

// TestSubmitRacingCloseNeverPanics: Submits racing Close must each end in a
// Result or the submit-after-Close error, never a send on the closed queue.
func TestSubmitRacingCloseNeverPanics(t *testing.T) {
	specs := []core.AppSpec{mustApp(t, "benign").Spec(), mustApp(t, "case1").Spec()}
	for round := 0; round < 3; round++ {
		svc, err := service.New(service.Options{
			Workers: 2,
			Analyze: core.AnalyzeOptions{Budget: testBudget},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// check reports whether the submission was refused.
				check := func(res service.Result, ok bool) bool {
					if !ok {
						t.Error("result channel closed without a Result")
						return false
					}
					if res.Err != nil && !strings.Contains(res.Err.Error(), "submit after Close") {
						t.Errorf("submission error: %v", res.Err)
					}
					return res.Err != nil
				}
				var chans []<-chan service.Result
			submit:
				for i := 0; i < 1000; i++ {
					ch := svc.Submit(specs[(g+i)%len(specs)])
					select {
					case res, ok := <-ch:
						if check(res, ok) {
							break submit
						}
					default:
						chans = append(chans, ch)
					}
				}
				for _, ch := range chans {
					res, ok := <-ch
					check(res, ok)
				}
			}(g)
		}
		waitFor(t, "submissions to flow", func() bool { return svc.Stats().Submitted >= 8 })
		svc.Close()
		wg.Wait()
	}
}

// TestOneRestorePerSubmission: each submission is installed once, by its
// worker's fingerprint step, and analyzed on that installation; a service
// boots exactly one Runner per worker.
func TestOneRestorePerSubmission(t *testing.T) {
	svc, err := service.New(service.Options{
		Workers: 2,
		Analyze: core.AnalyzeOptions{Budget: testBudget, FlowLog: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan service.Result
	for _, name := range []string{"case1", "qqphonebook", "ephone", "poc-case2", "poc-case3", "case3-pull", "case4", "benign"} {
		chans = append(chans, svc.Submit(mustApp(t, name).Spec()))
	}
	for _, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(res.Report.Chain) != 1 {
			t.Fatalf("%s: chain %s, want a single attempt", res.Name, res.Report.ChainString())
		}
	}
	svc.Close()
	st := svc.Stats()
	if st.Computed != st.Submitted {
		t.Fatalf("computed %d of %d submissions", st.Computed, st.Submitted)
	}
	if st.Runner.Resets != st.Submitted || st.Runner.Boots != 2 {
		t.Errorf("%d resets and %d boots for %d submissions, want one reset each and 2 boots",
			st.Runner.Resets, st.Runner.Boots, st.Submitted)
	}
}

// TestSlowInstallDoesNotBlockOthers: a submission whose Install hangs holds
// only the worker that installs it; other submissions complete meanwhile.
func TestSlowInstallDoesNotBlockOthers(t *testing.T) {
	svc, err := service.New(service.Options{
		Workers: 2,
		Analyze: core.AnalyzeOptions{Budget: testBudget},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	slow := mustApp(t, "case1").Spec()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	install := slow.Install
	slow.Install = func(sys *core.System) error {
		once.Do(func() { close(entered) })
		<-release
		return install(sys)
	}
	slowCh := make(chan service.Result, 1)
	go func() { slowCh <- <-svc.Submit(slow) }()
	<-entered

	var others []core.AppSpec
	for _, name := range []string{"benign", "qqphonebook", "case4"} {
		others = append(others, mustApp(t, name).Spec())
	}
	done := make(chan error, 1)
	go func() {
		var chans []<-chan service.Result
		for _, spec := range others {
			chans = append(chans, svc.Submit(spec))
		}
		for _, ch := range chans {
			if res := <-ch; res.Err != nil {
				done <- res.Err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("other submissions waited on the hanging install")
	}
	close(release)
	if res := <-slowCh; res.Err != nil || res.Report.Verdict() != core.VerdictLeak {
		t.Errorf("slow submission: err %v, chain %s", res.Err, res.Report.ChainString())
	}
}
