package apps_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dex"
)

const bridgeGolden = "testdata/bridge_parity.golden"

func outcomeOf(r core.AppReport) appOutcome {
	return appOutcome{
		verdict: r.Verdict(),
		log:     strings.Join(r.Final.Result.LogLines, "\n"),
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// surfaceDigest hashes the final attempt's JNI surface map ("none" when no
// analyzer ran).
func surfaceDigest(r core.AppReport) string {
	if m := r.Final.Result.Surface; m != nil {
		return sha(m.Bytes())
	}
	return "none"
}

// bridgeRecord is one bridge_parity.golden value: what the JNI bridge hands
// its user (verdict, chain, flow log, surface map) and the work it did (JNI
// crossings, ARM instructions retired, instructions traced).
func bridgeRecord(r core.AppReport) string {
	res := r.Final.Result
	return fmt.Sprintf("verdict=%s chain=%s log=%s surface=%s crossings=%d native=%d traced=%d",
		r.Verdict(), r.ChainString(), sha([]byte(logOf(r))), surfaceDigest(r),
		res.JNICrossings, res.NativeInsns, res.TracedInsns)
}

// bridgeField returns one key=value field of a bridge record.
func bridgeField(record, key string) string {
	for _, f := range strings.Fields(record) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

// TestFusionParityAllAppsAllModes (name kept from the trace-fusion era) pins
// every corpus app (the hostile set and the RegisterNatives re-binder
// included) under every mode to testdata/bridge_parity.golden: verdict,
// chain, flow log, surface map, crossings, native and traced instruction
// counts. The golden was recorded on the last tree that still had a second,
// fused bridge path, and held under both of its settings, so deleting that
// path changed no output and no unit of guest work. A change that alters a
// record on purpose regenerates the file with -update and shows it in its
// diff.
func TestFusionParityAllAppsAllModes(t *testing.T) {
	var want map[string]string
	if !*updateGolden {
		want = readGolden(t, bridgeGolden, "TestFusionParityAllAppsAllModes")
	}
	var lines []string
	for _, app := range apps.AllApps() {
		for _, mode := range allModes {
			app, mode := app, mode
			name := app.Name + "/" + mode.String()
			got := bridgeRecord(core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Mode: mode, Budget: testBudget, FlowLog: true,
			}))
			lines = append(lines, name+" "+got)
			t.Run(name, func(t *testing.T) {
				if *updateGolden {
					return
				}
				w, ok := want[name]
				if !ok {
					t.Fatalf("no golden record for %s", name)
				}
				if got != w {
					t.Errorf("bridge record changed:\ngot    %s\ngolden %s", got, w)
				}
			})
		}
	}
	if *updateGolden {
		if err := os.WriteFile(bridgeGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(lines) {
		t.Errorf("golden holds %d records, the corpus runs %d", len(want), len(lines))
	}
}

// TestFusionParityUnderSnapshotRunner (name kept from the trace-fusion era)
// holds the golden on the fork-server path: an attempt on a restored Runner
// reports what a fresh System does, so nothing the bridge binds per attempt
// survives a restore.
func TestFusionParityUnderSnapshotRunner(t *testing.T) {
	want := readGolden(t, bridgeGolden, "TestFusionParityAllAppsAllModes")
	runner, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			r := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{
				Budget: testBudget, FlowLog: true, Runner: runner,
			})
			if got, w := bridgeRecord(r), want[app.Name+"/ndroid"]; got != w {
				t.Errorf("snapshot-served run diverged:\ngot    %s\ngolden %s", got, w)
			}
		})
	}
}

// installed runs app under NDroid on a fresh System with the flow log on.
// It returns the analyzer, and per JNI crossing the method's native entry
// address and whether CPU.CodeEpoch moved during the crossing (between its
// start and the next crossing's, or the end of the run).
func installed(t *testing.T, name string) (*core.Analyzer, core.RunResult, []uint32, []bool) {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("%s missing", name)
	}
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Install(sys); err != nil {
		t.Fatal(err)
	}
	a := core.NewAnalyzer(sys, core.ModeNDroid)
	a.Budget = testBudget
	a.Log.Enabled = true
	var addrs []uint32
	var epochs []uint64
	observe := sys.VM.OnJNICall
	sys.VM.OnJNICall = func(m *dex.Method) {
		addrs = append(addrs, m.NativeAddr)
		epochs = append(epochs, sys.CPU.CodeEpoch)
		observe(m)
	}
	res := a.Run(app.EntryClass, app.EntryMethod, nil, nil)
	epochs = append(epochs, sys.CPU.CodeEpoch)
	moved := make([]bool, len(addrs))
	for i := range addrs {
		moved[i] = epochs[i+1] != epochs[i]
	}
	return a, res, addrs, moved
}

// TestHotCrossingBindsOnce: the JNI entry hook binds each native method once
// per attempt. Installing an entry hook invalidates its page's translated
// blocks and moves CPU.CodeEpoch, so across summix's 64 crossings of one
// native method the epoch moves on the first crossing only. Under rebind the
// binding is rebuilt at the re-registered address: the epoch moves on the
// first crossing of each address, and the entry hook fires at both.
func TestHotCrossingBindsOnce(t *testing.T) {
	for _, tc := range []struct {
		app       string
		crossings int
		entries   int
	}{
		{"summix", 64, 1},
		{"rebind", 7, 3}, // 5x process@A, rebind, process@B
	} {
		t.Run(tc.app, func(t *testing.T) {
			a, res, addrs, moved := installed(t, tc.app)
			if res.Verdict != core.VerdictLeak {
				t.Fatalf("verdict = %v, want leak", res.Verdict)
			}
			if len(addrs) != tc.crossings {
				t.Fatalf("%d crossings, want %d", len(addrs), tc.crossings)
			}
			seen := map[uint32]bool{}
			for i, addr := range addrs {
				first := !seen[addr]
				seen[addr] = true
				if moved[i] != first {
					t.Errorf("crossing %d (entry 0x%x, first %v): code epoch moved %v", i, addr, first, moved[i])
				}
			}
			if len(seen) != tc.entries {
				t.Errorf("%d native entries crossed, want %d", len(seen), tc.entries)
			}
			for addr := range seen {
				if line := fmt.Sprintf("SourceHandler @0x%x", addr); !a.Log.Contains(line) {
					t.Errorf("entry hook never fired at 0x%x (no %q line)", addr, line)
				}
			}
		})
	}
}

// TestRebindDeoptsFusedChain (name kept from the trace-fusion era): the
// rebind app's benign impl is crossed five times on one binding, then
// RegisterNatives re-registers it. The next crossing must rebuild the
// binding at the new address — its entry line and the SourcePolicy applied
// there — and the leaking impl must be caught.
func TestRebindDeoptsFusedChain(t *testing.T) {
	a, res, addrs, _ := installed(t, "rebind")
	if res.Verdict != core.VerdictLeak {
		t.Fatalf("verdict = %v, want leak\n%s", res.Verdict, strings.Join(res.LogLines, "\n"))
	}
	oldAddr, newAddr := addrs[0], addrs[len(addrs)-1]
	if oldAddr == newAddr {
		t.Fatalf("process crossed at 0x%x before and after the rebind", oldAddr)
	}
	if !a.Log.Contains(fmt.Sprintf("RegisterNatives Lcom/hostile/rebind/Main;.process 0x%x -> 0x%x", oldAddr, newAddr)) {
		t.Error("re-registration not recorded in the flow log")
	}
	var after []string
	for i, l := range res.LogLines {
		if strings.HasPrefix(l, "RegisterNatives ") {
			after = res.LogLines[i+1:]
		}
	}
	rebound := fmt.Sprintf("dvmCallJNIMethod: name=process shorty=LL class=Lcom/hostile/rebind/Main; insnAddr=0x%x", newAddr)
	if len(after) == 0 || after[0] != rebound || !slices.Contains(after, fmt.Sprintf("SourceHandler @0x%x", newAddr)) {
		t.Errorf("the crossing after the rebind did not bind at 0x%x:\n%s", newAddr, strings.Join(after, "\n"))
	}
	if !a.Log.Contains("SinkHandler[sendto]") {
		t.Error("post-rebind leak not caught by the native sink handler")
	}
	if n := len(a.Sys.Kern.Net.SentTo("exfil.rebind.example")); n != 1 {
		t.Errorf("ground truth: %d sends to exfil host, want 1", n)
	}
}
