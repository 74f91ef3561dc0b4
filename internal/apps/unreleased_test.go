package apps_test

// The unreleased-handle check: the JNI bridge reports every
// GetStringUTFChars buffer a native method returns without releasing, as a
// (boundary, Get site) finding on the surface map. These tests hold it to
// the tiny fixtures and to the corpus table of EXPERIMENTS ("Unreleased
// string handles: static lint vs the bridge").

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/surface"
)

const handleClass = "Lcom/ndroid/handles/Main;"

// handleApp is a one-native app: run passes a constant string to the native
// f(String) rounds times, and f's body is src, which must label its
// GetStringUTFChars call "get". site receives that call's address at
// install: BL to an external symbol assembles to MOVW IP, MOVT IP, BLX IP,
// and the call instruction is the BLX.
func handleApp(src string, rounds int, site *uint32) core.AppSpec {
	return core.AppSpec{
		Name: "handles", EntryClass: handleClass, EntryMethod: "run",
		Install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libhandles.so", src)
			if err != nil {
				return err
			}
			get, err := prog.Label("get")
			if err != nil {
				return err
			}
			*site = get + 8
			cb := dex.NewClass(handleClass)
			cb.NativeMethod("f", "VL", dex.AccStatic, 0)
			cb.Method("run", "V", dex.AccStatic, 2).
				Const(1, int32(rounds)).
				Label("loop").
				IfZ(1, dex.Le, "done").
				ConstString(0, "handle").
				InvokeStatic(handleClass, "f", "VL", 0).
				BinLit(dex.Sub, 1, 1, 1).
				Goto("loop").
				Label("done").
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(handleClass, "f", prog, "Java_f")
		},
	}
}

// Gets the chars and never releases them.
const unreleasedSrc = `
Java_f:
	PUSH {R4, LR}
	MOV R1, R2
	MOV R2, #0
get:
	BL GetStringUTFChars
	MOV R4, R0
	BL strlen
	POP {R4, PC}
`

// Pairs the Get with its Release.
const releasedSrc = `
Java_f:
	PUSH {R4, R5, LR}
	MOV R4, R0
	MOV R5, R2
	MOV R1, R2
	MOV R2, #0
get:
	BL GetStringUTFChars
	MOV R2, R0
	MOV R0, R4
	MOV R1, R5
	BL ReleaseStringUTFChars
	POP {R4, R5, PC}
`

// getLoopSrc gets the chars n times from one call site and releases none.
func getLoopSrc(n int) string {
	return fmt.Sprintf(`
Java_f:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	MOV R5, R2
	MOV R6, #%d
loop:
	MOV R0, R4
	MOV R1, R5
	MOV R2, #0
get:
	BL GetStringUTFChars
	SUB R6, R6, #1
	CMP R6, #0
	BNE loop
	POP {R4, R5, R6, PC}
`, n)
}

// handleFindings runs spec under NDroid on a fresh System and twice on a
// restored Runner, requires every run to produce the same surface map, and
// returns f's findings.
func handleFindings(t *testing.T, spec core.AppSpec) ([]surface.Unreleased, *surface.Map) {
	t.Helper()
	runner, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	var first *surface.Map
	for _, r := range []*core.Runner{nil, runner, runner} {
		rep := core.AnalyzeApp(spec, core.AnalyzeOptions{Budget: testBudget, Runner: r})
		if rep.Verdict() != core.VerdictClean || len(rep.Chain) != 1 {
			t.Fatalf("verdict %v chain %s, want clean on the first attempt", rep.Verdict(), rep.ChainString())
		}
		m := rep.Final.Result.Surface
		if first == nil {
			first = m
		} else if !m.Equal(first) {
			t.Fatalf("surface map diverges:\n%s\nfirst:\n%s", m.Bytes(), first.Bytes())
		}
	}
	for _, b := range first.Boundaries {
		if b.Name == handleClass+".f" {
			return b.Unreleased, first
		}
	}
	t.Fatalf("no boundary for f in %s", first.Bytes())
	return nil, nil
}

// TestSurfaceUnreleasedHandle: a native method that returns holding the
// chars of its one Get reports one finding at that Get, counted once per
// crossing (six).
func TestSurfaceUnreleasedHandle(t *testing.T) {
	var site uint32
	got, _ := handleFindings(t, handleApp(unreleasedSrc, 6, &site))
	if want := []surface.Unreleased{{Site: site, Count: 6}}; !reflect.DeepEqual(got, want) {
		t.Errorf("findings %+v, want %+v", got, want)
	}
}

// TestSurfaceReleasedHandleClean: a Get paired with its Release reports
// nothing.
func TestSurfaceReleasedHandleClean(t *testing.T) {
	var site uint32
	if got, _ := handleFindings(t, handleApp(releasedSrc, 6, &site)); len(got) != 0 {
		t.Errorf("paired Get/Release reported %+v", got)
	}
}

// TestSurfaceUnreleasedGetLoop: a Get in a loop leaves one open buffer per
// iteration. They share one call site, so the map holds one finding whose
// count is the iteration count, and a longer loop records no more events.
func TestSurfaceUnreleasedGetLoop(t *testing.T) {
	var site uint32
	events := -1
	for _, n := range []int{3, 40} {
		got, m := handleFindings(t, handleApp(getLoopSrc(n), 1, &site))
		if want := []surface.Unreleased{{Site: site, Count: uint64(n)}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%d Gets: findings %+v, want %+v", n, got, want)
		}
		if events >= 0 && m.Events != events {
			t.Errorf("%d Gets recorded %d events, 3 Gets %d: repeats must only count", n, m.Events, events)
		}
		events = m.Events
	}
}

// unreleasedCorpus is the dynamic side of the EXPERIMENTS decision record:
// per corpus app, the boundaries that return with GetStringUTFChars chars
// unreleased and the Get sites. No corpus app ever releases its chars.
var unreleasedCorpus = map[string]map[string][]uint32{
	"case1":           {"Lcom/ndroid/case1/Main;.scramble": {0x8018}},
	"qqphonebook":     {"Lcom/tencent/tccsync/LoginUtil;.makeLoginRequestPackageMd5": {0x8018}},
	"ephone":          {"Lcom/vnet/asip/general/general;.callregister": {0x8018}},
	"benign":          {"Lcom/ndroid/benign/Main;.ping": {0x8018}},
	"poc-case2":       {"Lcom/ndroid/demos/Demos;.recordContact": {0x801c, 0x8038, 0x8054}},
	"poc-case3":       {"Lcom/ndroid/demos3/Demos;.evadeTaintDroid": {0x8018}},
	"case3-pull":      {"Lcom/ndroid/case3/Main;.pullAndLeak": {0x8078}},
	"rebind":          {"Lcom/hostile/rebind/Main;.process": {0x8028}},
	"hostile-smc":     {"Lcom/hostile/smc/Main;.process": {0x8028}},
	"hostile-pinswap": {"Lcom/hostile/pinswap/Main;.process": {0x8028}},
}

// TestSurfaceUnreleasedCorpus pins the corpus table: 12 Get sites on 10
// apps under NDroid, each left open once, and no finding anywhere else.
func TestSurfaceUnreleasedCorpus(t *testing.T) {
	sites := 0
	for _, byBoundary := range unreleasedCorpus {
		for _, s := range byBoundary {
			sites += len(s)
		}
	}
	if len(unreleasedCorpus) != 10 || sites != 12 {
		t.Fatalf("table has %d apps and %d sites, want 10 and 12", len(unreleasedCorpus), sites)
	}
	for _, app := range apps.AllApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Budget: testBudget})
			got := map[string][]uint32{}
			for _, b := range rep.Final.Result.Surface.Boundaries {
				for _, u := range b.Unreleased {
					if u.Count != 1 {
						t.Errorf("%s@%#x left open %d times, want 1", b.Name, u.Site, u.Count)
					}
					got[b.Name] = append(got[b.Name], u.Site)
				}
			}
			want := unreleasedCorpus[app.Name]
			if want == nil {
				want = map[string][]uint32{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings %v, want %v", got, want)
			}
		})
	}
}

// lintFindings is the static side of the same decision record: the 6
// unreleased-handle findings the deleted core.Lint reported on 5 apps.
var lintFindings = map[string]map[string][]uint32{
	"case1":       {"Lcom/ndroid/case1/Main;.scramble": {0x8018}},
	"qqphonebook": {"Lcom/tencent/tccsync/LoginUtil;.makeLoginRequestPackageMd5": {0x8018}},
	"poc-case2":   {"Lcom/ndroid/demos/Demos;.recordContact": {0x801c, 0x8038}},
	"case3-pull":  {"Lcom/ndroid/case3/Main;.pullAndLeak": {0x8078}},
	"benign":      {"Lcom/ndroid/benign/Main;.ping": {0x8018}},
}

// TestStaticCrossValidation (name kept from the reach oracle it used to
// run) cross-validates the decision record's two columns in every mode:
// every finding the static lint made is reported by the bridge at the same
// Get site, and the bridge reads the same corpus table under vanilla,
// TaintDroid, NDroid and DroidScope, since the check depends on no taint.
func TestStaticCrossValidation(t *testing.T) {
	n := 0
	for _, byBoundary := range lintFindings {
		for _, s := range byBoundary {
			n += len(s)
		}
	}
	if len(lintFindings) != 5 || n != 6 {
		t.Fatalf("lint table has %d apps and %d findings, want 5 and 6", len(lintFindings), n)
	}
	for _, app := range apps.AllApps() {
		for _, mode := range allModes {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Mode: mode, Budget: testBudget})
				got := map[string]map[uint32]bool{}
				for _, b := range rep.Final.Result.Surface.Boundaries {
					for _, u := range b.Unreleased {
						if got[b.Name] == nil {
							got[b.Name] = map[uint32]bool{}
						}
						got[b.Name][u.Site] = true
					}
				}
				for name, sites := range lintFindings[app.Name] {
					for _, s := range sites {
						if !got[name][s] {
							t.Errorf("lint finding %s@%#x not reported by the bridge", name, s)
						}
					}
				}
				want := map[string]map[uint32]bool{}
				for name, sites := range unreleasedCorpus[app.Name] {
					want[name] = map[uint32]bool{}
					for _, s := range sites {
						want[name][s] = true
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("findings %v, want the NDroid table's %v", got, want)
				}
			})
		}
	}
}
