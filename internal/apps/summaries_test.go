package apps_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/taint"
)

// The tests in this file keep their names from the native taint summary era.
// Summaries were deleted; what they had to preserve still stands, and these
// tests hold it without them.

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens of the tests that run from this tree")

const parityGolden = "testdata/summary_parity.golden"

// outcomeDigest hashes everything an analysis reports to its user: the
// verdict, the degradation chain and the flow log.
func outcomeDigest(r core.AppReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "verdict=%s chain=%s degraded=%t\n", r.Verdict(), r.ChainString(), r.Degraded)
	h.Write([]byte(logOf(r)))
	return hex.EncodeToString(h.Sum(nil))
}

// readGolden reads a "name value" per line golden file; test names the test
// whose -update run regenerates it.
func readGolden(t *testing.T, path, test string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/apps -run %s -update)", err, test)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSummaryParityAllAppsAllModes (name kept from the summary era) pins
// every corpus app (benign + hostile) under every analysis mode at default
// options to the verdict, chain and flow log recorded in
// testdata/summary_parity.golden. The golden was recorded on the last tree
// that still had summaries, so deleting them changed no output. A change
// that alters an output on purpose regenerates the file with -update and
// shows the new digests in its diff.
func TestSummaryParityAllAppsAllModes(t *testing.T) {
	var want map[string]string
	if !*updateGolden {
		want = readGolden(t, parityGolden, "TestSummaryParityAllAppsAllModes")
	}
	var lines []string
	for _, app := range apps.AllApps() {
		for _, mode := range allModes {
			app, mode := app, mode
			name := app.Name + "/" + mode.String()
			r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Mode: mode, Budget: testBudget, FlowLog: true,
			})
			got := outcomeDigest(r)
			lines = append(lines, name+" "+got)
			t.Run(name, func(t *testing.T) {
				if *updateGolden {
					return
				}
				w, ok := want[name]
				if !ok {
					t.Fatalf("no golden digest for %s", name)
				}
				if got != w {
					t.Errorf("verdict/chain/flow log changed: digest %s, golden %s (verdict %v, chain %s)",
						got, w, r.Verdict(), r.ChainString())
				}
			})
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(parityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(lines) {
		t.Errorf("golden holds %d digests, the corpus runs %d", len(want), len(lines))
	}
}

// TestSumdodgeValidationRejects (name kept from the summary era) holds the
// precision hostile-sumdodge was built to probe: the native gate's taint
// transfer depends on its argument's value. NDroid's per-instruction tracing
// sees the tainted zero take the clean path, so the first send stays clean
// and only the real leak, the tainted length passed through, is reported.
func TestSumdodgeValidationRejects(t *testing.T) {
	app, ok := apps.ByName("hostile-sumdodge")
	if !ok {
		t.Fatal("hostile-sumdodge missing")
	}
	r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget, FlowLog: true})
	if r.Verdict() != core.VerdictLeak {
		t.Fatalf("verdict = %v, want leak (chain %s)", r.Verdict(), r.ChainString())
	}
	leaks := r.Final.Result.Leaks
	if len(leaks) != 1 {
		t.Fatalf("leaks = %v, want exactly the pass-through one", leaks)
	}
	if l := leaks[0]; l.Sink != "Network.send" || l.Tag&taint.IMEI == 0 || string(l.Data) == "0" {
		t.Errorf("leak = %+v, want the IMEI-tainted length at Network.send", l)
	}
	if r.Final.Result.SummaryApplied != 0 {
		t.Errorf("SummaryApplied = %d, want 0", r.Final.Result.SummaryApplied)
	}
}
