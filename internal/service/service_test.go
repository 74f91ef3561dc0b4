package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/static"
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

// TestVerdictReplayCarriesStatic: with the static pass on, a warm verdict
// replay hands back the computed run's pre-analysis result (counts, lint
// findings, reach and pin sets) without running the pass again.
func TestVerdictReplayCarriesStatic(t *testing.T) {
	app := mustApp(t, "poc-case2") // two lint findings
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	aOpts := core.AnalyzeOptions{Budget: testBudget, FlowLog: true, Static: static.PinLevel}
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
	warm, st := submit()
	if warm.Source != "verdict-cache" || st.Runner.StaticRuns != 0 {
		t.Fatalf("warm source %q with %d static runs, want a replay with none", warm.Source, st.Runner.StaticRuns)
	}
	cs, ws := cold.Report.Final.Result.Static, warm.Report.Final.Result.Static
	if cs == nil || len(cs.Findings) != 2 {
		t.Fatalf("computed static result %v, want two lint findings", cs)
	}
	if ws == nil {
		t.Fatal("replayed verdict carries no static result")
	}
	if ws.Summary() != cs.Summary() {
		t.Errorf("replayed %q, computed %q", ws.Summary(), cs.Summary())
	}
	got, _ := json.Marshal(ws.Portable())
	want, _ := json.Marshal(cs.Portable())
	if !bytes.Equal(got, want) {
		t.Errorf("replayed static result differs from the computed one:\n%s\n%s", got, want)
	}
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

// TestShardRoutingStable: the same digest always routes to the same shard
// worker, so repeated submissions of one app are served by one Runner's warm
// caches no matter how many workers exist.
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
	// Uncached service: no verdict records, so all three ran — on one shard.
	// Exactly one worker Runner (plus the fingerprint Runner) did any resets.
	if st := svc.Stats(); st.Computed != 3 {
		t.Fatalf("computed = %d, want 3 (no verdict store attached)", st.Computed)
	}
}

// TestFingerprintRestoreFaultNotBlamedOnApp: a snapshot restore that fails in
// the fingerprint stage is the Runner's fault, not the submission's. The stage
// reboots and retries, so the app keeps its content digest (and with it dedup
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

	// The fingerprint stage restores before the shard's first attempt does, so
	// it consumes the injection.
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
