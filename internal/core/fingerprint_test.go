package core_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cas"
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

// TestFingerprintScopes pins the artifact-scope split the service and the
// store key by: the display name is excluded entirely, native-library prints
// cover only the image content (so two apps sharing a lib share the print),
// and the dex digest covers exactly what an Install registered.
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
	if base.App == "" || base.Dex == "" || len(base.Libs) == 0 {
		t.Fatalf("incomplete fingerprint: %+v", base)
	}

	// Stability: re-fingerprinting the same spec on the restored System must
	// reproduce every digest (the snapshot rewinds load bases).
	if again := fingerprintOf(t, r, app.Spec()); again.App != base.App || again.Dex != base.Dex {
		t.Errorf("fingerprint unstable across restores: %+v vs %+v", again, base)
	}

	// Identical content under another display name is the same submission.
	renamed := app.Spec()
	renamed.Name = "case1-resubmitted-under-alias"
	if got := fingerprintOf(t, r, renamed); got.App != base.App {
		t.Errorf("display name leaked into the app digest: %s vs %s", got.App, base.App)
	}

	// Shared-lib variant: identical native library, one extra dex class. The
	// library prints must be unchanged (that is what makes assembled images
	// reusable across apps) while the dex and app digests must move.
	variant := app.Spec()
	inner := variant.Install
	variant.Install = func(sys *core.System) error {
		if err := inner(sys); err != nil {
			return err
		}
		cb := dex.NewClass("Lcom/ndroid/extra/Pad;")
		cb.Method("pad", "I", dex.AccStatic, 1).
			Const(0, 7).
			Return(0).
			Done()
		sys.VM.RegisterClass(cb.Build())
		return nil
	}
	vfp := fingerprintOf(t, r, variant)
	if vfp.Dex == base.Dex {
		t.Error("dex digest missed the added class")
	}
	if vfp.App == base.App {
		t.Error("app digest missed the added class")
	}
	if len(vfp.Libs) != len(base.Libs) {
		t.Fatalf("lib count changed: %d vs %d", len(vfp.Libs), len(base.Libs))
	}
	for i := range vfp.Libs {
		if vfp.Libs[i].Digest != base.Libs[i].Digest {
			t.Errorf("shared library %s changed print: %s vs %s",
				vfp.Libs[i].Name, vfp.Libs[i].Digest, base.Libs[i].Digest)
		}
	}
}

// TestFingerprintDexCheckCached: validation verdicts are keyed by class
// content digest in the artifact store, so re-fingerprinting identical
// content replays them without re-running Validate.
func TestFingerprintDexCheckCached(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewCachedRunner(store)
	if err != nil {
		t.Fatal(err)
	}
	app, ok := apps.ByName("case1")
	if !ok {
		t.Fatal("case1 missing")
	}
	fingerprintOf(t, r, app.Spec())
	v1 := r.Stats.DexValidations
	if v1 == 0 {
		t.Fatal("first fingerprint ran no validations")
	}
	fingerprintOf(t, r, app.Spec())
	if r.Stats.DexValidations != v1 {
		t.Errorf("re-validated cached classes: %d -> %d", v1, r.Stats.DexValidations)
	}
	if r.Stats.DexCheckHits == 0 {
		t.Error("no validation verdicts served from the store")
	}

	// A second runner over the same store inherits the verdicts cold.
	r2, err := core.NewCachedRunner(store)
	if err != nil {
		t.Fatal(err)
	}
	fingerprintOf(t, r2, app.Spec())
	if r2.Stats.DexValidations != 0 {
		t.Errorf("fresh runner re-validated %d classes despite warm store", r2.Stats.DexValidations)
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
