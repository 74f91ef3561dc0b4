package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

var updateExec = flag.Bool("update-exec", false, "rewrite testdata/java_exec.golden from this tree")

const execGolden = "testdata/java_exec.golden"

// runAppExec installs and runs an app on a fresh System under one mode,
// gate on or off, with the flow log enabled.
func runAppExec(t *testing.T, app *apps.App, mode core.Mode, gate bool) *core.Analyzer {
	t.Helper()
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Install(sys); err != nil {
		t.Fatalf("install %s: %v", app.Name, err)
	}
	var a *core.Analyzer
	if gate {
		a = core.NewAnalyzer(sys, mode)
	} else {
		a = core.NewAnalyzerNoGate(sys, mode)
	}
	a.Log.Enabled = true
	if err := app.Run(sys); err != nil {
		t.Fatalf("run %s under %s: %v", app.Name, mode, err)
	}
	return a
}

// execLine is one golden record: digests of the flow log and the leak
// list, the detection verdict, and both executed-instruction counters.
func execLine(app *apps.App, a *core.Analyzer) string {
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:16])
	}
	detected := "-"
	if app.ExpectTag != 0 {
		detected = fmt.Sprint(a.Leaks.Detected(app.ExpectTag))
	}
	return fmt.Sprintf("log=%s leaks=%s detected=%s java=%d native=%d",
		sum(a.Log.String()), sum(leakStrings(a)), detected,
		a.Sys.VM.JavaInsnCount, a.Sys.CPU.InsnCount)
}

// TestJavaTranslationSoundnessFlowLogs pins the Dalvik executor: for every
// evaluation app, every analysis mode and both gate settings, the flow log,
// the leak list, the detection verdict and the Java and native instruction
// counts must match testdata/java_exec.golden, which was recorded on the
// two-engine VM (interpreter plus closure translator) the executor
// replaced. DroidScope must also still pay one VMI walk per executed Dalvik
// instruction. Regenerate with -update-exec only for an intended change.
func TestJavaTranslationSoundnessFlowLogs(t *testing.T) {
	var want map[string]string
	if !*updateExec {
		want = readExecGolden(t)
	}
	var lines []string
	modes := []core.Mode{core.ModeVanilla, core.ModeTaintDroid, core.ModeNDroid, core.ModeDroidScope}
	for _, app := range apps.Registry() {
		for _, mode := range modes {
			for _, gate := range []bool{true, false} {
				key := fmt.Sprintf("%s/%s/gate=%v", app.Name, mode, gate)
				a := runAppExec(t, app, mode, gate)
				got := execLine(app, a)
				lines = append(lines, key+" "+got)
				t.Run(key, func(t *testing.T) {
					if mode == core.ModeDroidScope && a.VMIWalks() != a.Sys.VM.JavaInsnCount {
						t.Errorf("%d VMI walks for %d Java instructions; DroidScope must pay one per instruction",
							a.VMIWalks(), a.Sys.VM.JavaInsnCount)
					}
					if want != nil && got != want[key] {
						t.Errorf("\n got %s\nwant %s", got, want[key])
					}
				})
			}
		}
	}
	if *updateExec {
		if err := os.WriteFile(execGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(want) != len(lines) {
		t.Errorf("golden has %d records, run has %d", len(want), len(lines))
	}
}

func readExecGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(execGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/core -run TestJavaTranslationSoundnessFlowLogs -update-exec)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", execGolden, sc.Text())
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestJavaTranslationEngages (name kept from the two-engine VM) asserts the
// executor runs every mode: the gated benign app never flips the Java taint
// latch, so every frame ran clean; a leaking app flips it; and DroidScope
// runs the same decodes as NDroid, paying its VMI walk per instruction on
// top.
func TestJavaTranslationEngages(t *testing.T) {
	benign, ok := apps.ByName("benign")
	if !ok {
		t.Fatal("benign app missing")
	}
	a := runAppExec(t, benign, core.ModeNDroid, true)
	if a.Sys.VM.JavaTransMethods == 0 {
		t.Error("benign app decoded no methods")
	}
	if a.Sys.VM.TaintSeen() {
		t.Error("benign app flipped the Java taint latch")
	}

	leaky, _ := apps.ByName("case1")
	b := runAppExec(t, leaky, core.ModeNDroid, true)
	if !b.Sys.VM.TaintSeen() {
		t.Error("case1 never flipped the Java taint latch despite its source")
	}

	d := runAppExec(t, leaky, core.ModeDroidScope, true)
	if d.Sys.VM.JavaTransMethods != b.Sys.VM.JavaTransMethods {
		t.Errorf("DroidScope decoded %d methods, NDroid %d: one executor runs both",
			d.Sys.VM.JavaTransMethods, b.Sys.VM.JavaTransMethods)
	}
	if d.VMIWalks() == 0 || d.VMIWalks() != d.Sys.VM.JavaInsnCount {
		t.Errorf("DroidScope paid %d VMI walks for %d instructions", d.VMIWalks(), d.Sys.VM.JavaInsnCount)
	}
}
