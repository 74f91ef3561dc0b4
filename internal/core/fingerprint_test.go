package core_test

import (
	"bufio"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dex"
)

func fingerprintOf(t *testing.T, r *core.Runner, spec core.AppSpec) core.Fingerprint {
	t.Helper()
	fp, diags, err := r.Fingerprint(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("unexpected validation diagnostics: %v", diags)
	}
	return fp
}

// TestFingerprintScopes pins what the app digest covers: the display name
// is excluded entirely, re-fingerprinting on the restored System reproduces
// the digest (the snapshot rewinds load bases), and a dex class added next
// to the same native library moves it.
func TestFingerprintScopes(t *testing.T) {
	app, ok := apps.ByName("case1")
	if !ok {
		t.Fatal("case1 missing")
	}
	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprintOf(t, r, app.Spec())
	if base.App == "" {
		t.Fatal("empty app digest")
	}
	if again := fingerprintOf(t, r, app.Spec()); again != base {
		t.Errorf("fingerprint unstable across restores: %+v vs %+v", again, base)
	}

	// Identical content under another display name is the same submission.
	renamed := app.Spec()
	renamed.Name = "case1-resubmitted-under-alias"
	if got := fingerprintOf(t, r, renamed); got != base {
		t.Errorf("display name leaked into the app digest: %s vs %s", got.App, base.App)
	}

	if vfp := fingerprintOf(t, r, apps.SharedLibVariant(app).Spec()); vfp == base {
		t.Error("app digest missed the added class")
	}
}

// TestFingerprintValidatesEveryCall: dex validation runs in memory on every
// fingerprint, once per installed class, with nothing replayed. The Runner
// counts the VM's real assembler runs: case1's one library assembles on the
// first install, and the VM's memo serves the second.
func TestFingerprintValidatesEveryCall(t *testing.T) {
	app, ok := apps.ByName("case1")
	if !ok {
		t.Fatal("case1 missing")
	}
	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	fingerprintOf(t, r, app.Spec())
	v1 := r.Stats.DexValidations
	if v1 == 0 {
		t.Fatal("first fingerprint ran no validations")
	}
	fingerprintOf(t, r, app.Spec())
	if r.Stats.DexValidations != 2*v1 {
		t.Errorf("second fingerprint: %d validations in all, want %d", r.Stats.DexValidations, 2*v1)
	}
	if r.Stats.DexCheckHits != 0 || r.Stats.AsmCacheHits != 0 {
		t.Errorf("replay counters moved: %+v", r.Stats)
	}
	if n, vm := r.Stats.AsmAssembles, r.System().VM.AsmAssembles; n != 1 || uint64(n) != vm {
		t.Errorf("Runner counted %d assembler runs, VM %d; want 1 each", n, vm)
	}
}

// TestFingerprintHandOff guards the Fingerprint -> analyzeOnce hand-off: the
// installed System serves only the next attempt for the same spec, and that
// attempt matches the fresh-System reference for every corpus app. An attempt
// for another spec, and every later rung of the degradation ladder, resets
// and installs.
func TestFingerprintHandOff(t *testing.T) {
	mustSpec := func(name string) core.AppSpec {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		return app.Spec()
	}
	opts := core.AnalyzeOptions{Budget: 1 << 21, FlowLog: true}
	same := func(t *testing.T, got, want core.AppReport) {
		t.Helper()
		if got.ChainString() != want.ChainString() || got.Verdict() != want.Verdict() {
			t.Errorf("chain %s, fresh-System reference %s", got.ChainString(), want.ChainString())
		}
		if g, w := strings.Join(got.Final.Result.LogLines, "\n"), strings.Join(want.Final.Result.LogLines, "\n"); g != w {
			t.Errorf("flow log diverges from the fresh-System reference:\n%s\nwant:\n%s", g, w)
		}
	}

	t.Run("other-spec", func(t *testing.T) {
		r, err := core.NewRunner()
		if err != nil {
			t.Fatal(err)
		}
		fingerprintOf(t, r, mustSpec("case1"))
		ropts := opts
		ropts.Runner = r
		got := core.AnalyzeApp(mustSpec("qqphonebook"), ropts)
		same(t, got, core.AnalyzeApp(mustSpec("qqphonebook"), opts))
		if r.Stats.Resets != 2 {
			t.Errorf("resets = %d, want 2: qqphonebook ran on case1's installation", r.Stats.Resets)
		}
	})

	t.Run("same-spec", func(t *testing.T) {
		r, err := core.NewRunner()
		if err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.Runner = r
		for _, app := range apps.AllApps() {
			if _, _, err := r.Fingerprint(app.Spec()); err != nil {
				continue // an install fault leaves nothing to hand off
			}
			before := r.Stats.Resets
			got := core.AnalyzeApp(app.Spec(), ropts)
			same(t, got, core.AnalyzeApp(app.Spec(), opts))
			if n := r.Stats.Resets - before; n != len(got.Chain)-1 {
				t.Errorf("%s: %d resets for chain %s, want one per rung after the first", app.Name, n, got.ChainString())
			}
		}
	})

	t.Run("ladder", func(t *testing.T) {
		spec := mustSpec("hostile-wild")
		r, err := core.NewRunner()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Fingerprint(spec); err != nil {
			t.Fatal(err)
		}
		before := r.Stats
		ropts := opts
		ropts.Runner = r
		got := core.AnalyzeApp(spec, ropts)
		same(t, got, core.AnalyzeApp(spec, opts))
		if len(got.Chain) != 3 {
			t.Fatalf("chain %s, want three rungs", got.ChainString())
		}
		if n := r.Stats.Resets - before.Resets; n != len(got.Chain)-1 {
			t.Errorf("ladder reset %d times, want %d: one per rung after the handed-off first", n, len(got.Chain)-1)
		}
		if r.Stats.Boots != before.Boots {
			t.Errorf("ladder booted %d times", r.Stats.Boots-before.Boots)
		}
	})
}

// TestFingerprintReportsOutOfFrameRegister: a class whose method names a
// register past its frame fails validation, and every fingerprint reports it
// as a load-time diagnostic.
func TestFingerprintReportsOutOfFrameRegister(t *testing.T) {
	const cls = "Lcom/test/Regs;"
	spec := core.AppSpec{
		Name: "regs", EntryClass: cls, EntryMethod: "run",
		Install: func(sys *core.System) error {
			cb := dex.NewClass(cls)
			cb.Method("run", "V", dex.AccStatic, 1).Const(9, 7).ReturnVoid().Done()
			sys.VM.RegisterClass(cb.Build())
			return nil
		},
	}
	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, diags, err := r.Fingerprint(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 1 || !strings.Contains(diags[0], "register v9 outside a 1-register frame") {
			t.Fatalf("fingerprint %d: diags = %q; want the out-of-frame register", i+1, diags)
		}
	}
}

var updateFingerprint = flag.Bool("update-fingerprint", false, "rewrite testdata/fingerprint_app.golden from this tree")

const fingerprintGolden = "testdata/fingerprint_app.golden"

// TestFingerprintAppGolden pins Fingerprint.App, the digest verdict keys are
// built from, for every corpus app and its shared-library variant: a change
// to what the fingerprint hashes would make every stored verdict a miss. The
// golden was recorded while the fingerprint still carried per-class and
// per-library scopes, so it also holds the digest to the bytes it hashed
// then. Regenerate with -update-fingerprint only for an intended re-key.
func TestFingerprintAppGolden(t *testing.T) {
	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, app := range apps.AllApps() {
		for _, a := range []*apps.App{app, apps.SharedLibVariant(app)} {
			fp, _, err := r.Fingerprint(a.Spec())
			digest := fp.App
			if err != nil {
				digest = "install-fault"
			}
			lines = append(lines, a.Name+" "+digest)
		}
	}
	if *updateFingerprint {
		if err := os.WriteFile(fingerprintGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-fingerprint)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d apps, the corpus has %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("got %s, golden %s", lines[i], want[i])
		}
	}
}
