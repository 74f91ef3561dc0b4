package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/dvm"
	"repro/internal/fault"
	"repro/internal/taint"
)

var updateNested = flag.Bool("update-nested", false, "rewrite testdata/nested_crossing.golden from this tree")

const nestedGolden = "testdata/nested_crossing.golden"

// nestedApp crosses JNI twice deep on every round: run calls native outer,
// which calls the Java method innerJava through CallStaticIntMethod, which
// calls native inner, for six rounds, so both native methods are crossed
// again after their first binding. The IMEI-derived argument carries taint
// through both levels; outer adds it to innerJava's result natively, so the
// value reaching Network.send is tainted through native data flow.
func nestedApp() core.AppSpec { return nestedAppAdding("R6") }

// nestedAppAdding is nestedApp with outer returning innerJava(x) + operand.
func nestedAppAdding(operand string) core.AppSpec {
	const cls = "Lcom/ndroid/nested/Main;"
	return core.AppSpec{
		Name: "nested", EntryClass: cls, EntryMethod: "run",
		Install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libnested.so", fmt.Sprintf(`
; int outer(JNIEnv*, jclass, int x): innerJava(x) + operand, through JNI
Java_outer:
	PUSH {R4, R5, R6, R7, LR}
	MOV R4, R0
	MOV R5, R1
	MOV R6, R2
	MOV R0, R4
	MOV R1, R5
	LDR R2, =mname
	LDR R3, =msig
	BL GetStaticMethodID
	MOV R7, R0
	MOV R0, R4
	MOV R1, R5
	MOV R2, R7
	MOV R3, R6
	BL CallStaticIntMethod
	ADD R0, R0, %s
	POP {R4, R5, R6, R7, PC}

; int inner(JNIEnv*, jclass, int x): (x ^ 5) + 3
Java_inner:
	MOV R0, R2
	EOR R0, R0, #5
	ADD R0, R0, #3
	BX LR

mname:
	.asciz "innerJava"
msig:
	.asciz "(I)I"
	.align 4
`, operand))
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("outer", "II", dex.AccStatic, 0)
			cb.NativeMethod("inner", "II", dex.AccStatic, 0)
			cb.Method("innerJava", "II", dex.AccStatic, 1).
				InvokeStatic(cls, "inner", "II", 1).
				MoveResult(0).
				Return(0).
				Done()
			cb.Method("run", "V", dex.AccStatic, 4).
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(3).
				InvokeVirtual("Ljava/lang/String;", "length", "I", 3).
				MoveResult(0).
				Const(1, 6).
				Label("loop").
				IfZ(1, dex.Le, "sink").
				InvokeStatic(cls, "outer", "II", 0).
				MoveResult(0).
				BinLit(dex.Sub, 1, 1, 1).
				Goto("loop").
				Label("sink").
				InvokeStatic("Ljava/lang/String;", "valueOf", "LI", 0).
				MoveResult(3).
				ConstString(2, "collect.nested.example").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 2, 3).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			if err := sys.VM.BindNative(cls, "outer", prog, "Java_outer"); err != nil {
				return err
			}
			return sys.VM.BindNative(cls, "inner", prog, "Java_inner")
		},
	}
}

func readNestedGolden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile(nestedGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/core -run TestNestedCrossingGolden -update-nested)", err)
	}
	return string(want)
}

// TestNestedCrossingGolden runs the two-deep crossing on a fresh System and
// twice on a restored Runner, and holds every flow log byte-identical to the
// golden recorded before the bridge pooled its call contexts by pad depth.
func TestNestedCrossingGolden(t *testing.T) {
	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	for _, runner := range []*core.Runner{nil, r, r} {
		rep := core.AnalyzeApp(nestedApp(), core.AnalyzeOptions{Runner: runner, FlowLog: true})
		res := rep.Final.Result
		if rep.Verdict() != core.VerdictLeak || rep.Degraded {
			t.Fatalf("verdict %v chain %s, want a leak on the first attempt", rep.Verdict(), rep.ChainString())
		}
		if res.JNICrossings != 12 {
			t.Errorf("%d crossings, want 12", res.JNICrossings)
		}
		logs = append(logs, strings.Join(res.LogLines, "\n")+"\n")
	}
	if *updateNested {
		if err := os.WriteFile(nestedGolden, []byte(logs[0]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readNestedGolden(t)
	if !strings.Contains(want, "name=inner") {
		t.Fatal("golden log shows no inner crossing")
	}
	for i, got := range logs {
		if got != want {
			t.Errorf("run %d: flow log differs from %s:\n%s", i, nestedGolden, got)
		}
	}
}

// TestNestedPrimitiveReturnTaint: with outer adding a constant instead of
// its tainted argument, the only taint in its return value is innerJava's
// int return, which crosses Java -> native through CallStaticIntMethod. The
// dvmCallMethod* After hook puts that return taint on R0's shadow, so the
// leak is caught fresh and restored, on the first attempt.
func TestNestedPrimitiveReturnTaint(t *testing.T) {
	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	for _, runner := range []*core.Runner{nil, r, r} {
		rep := core.AnalyzeApp(nestedAppAdding("#1"), core.AnalyzeOptions{Runner: runner})
		if rep.Verdict() != core.VerdictLeak || len(rep.Chain) != 1 {
			t.Fatalf("verdict %v chain %s, want a leak on the first attempt", rep.Verdict(), rep.ChainString())
		}
		if !rep.Final.Result.Leaks.Detected(taint.IMEI) {
			t.Errorf("leaks %v, want the IMEI", rep.Final.Result.Leaks)
		}
	}
}

// TestPadDepthAfterMidCrossingFault stops the nested app inside its inner
// crossing, once by an injected bridge fault and once by a hook panic, and
// checks that the native-call depth is back to 0 after the snapshot restore
// and that the next run on the restored System still matches the golden.
func TestPadDepthAfterMidCrossingFault(t *testing.T) {
	want := readNestedGolden(t)
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	stops := map[string]func(t *testing.T, sys *core.System){
		// The second crossing is inner's, one native call deep.
		"injected": func(t *testing.T, _ *core.System) {
			if err := fault.ArmNth(dvm.SiteJNIBridge, fault.UnmappedAccess, 2); err != nil {
				t.Fatal(err)
			}
		},
		"panic": func(_ *testing.T, sys *core.System) {
			sys.VM.HookInternal("dvmCallJNIMethod", dvm.InternalHook{Before: func(ctx *dvm.CallCtx) {
				if ctx.Method.Name == "inner" {
					panic("hook panic inside the inner crossing")
				}
			}})
		},
	}
	for _, name := range []string{"injected", "panic"} {
		t.Run(name, func(t *testing.T) {
			defer fault.Reset()
			spec := nestedApp()
			if err := spec.Install(sys); err != nil {
				t.Fatal(err)
			}
			a := core.NewAnalyzer(sys, core.ModeNDroid)
			stops[name](t, sys)
			res := a.Run(spec.EntryClass, spec.EntryMethod, nil, nil)
			if res.Verdict != core.VerdictFault {
				t.Fatalf("verdict %v, want fault", res.Verdict)
			}
			if _, err := snap.Restore(); err != nil {
				t.Fatal(err)
			}
			if d := sys.VM.PadDepth(); d != 0 {
				t.Fatalf("pad depth %d after restore, want 0", d)
			}

			if err := spec.Install(sys); err != nil {
				t.Fatal(err)
			}
			a = core.NewAnalyzer(sys, core.ModeNDroid)
			a.Log.Enabled = true
			res = a.Run(spec.EntryClass, spec.EntryMethod, nil, nil)
			if got := strings.Join(res.LogLines, "\n") + "\n"; got != want {
				t.Errorf("flow log after the faulted attempt differs from %s:\n%s", nestedGolden, got)
			}
			if _, err := snap.Restore(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNestedCrossingContextsStayLive checks the pooled call contexts by
// depth: the JNIEnv call that reaches innerJava and the bridge crossing into
// inner are live at the same native-call depth, so an After hook of the
// JNIEnv call must still see its own context once inner has returned.
func TestNestedCrossingContextsStayLive(t *testing.T) {
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	spec := nestedApp()
	if err := spec.Install(sys); err != nil {
		t.Fatal(err)
	}
	a := core.NewAnalyzer(sys, core.ModeNDroid)
	seen := 0
	for _, name := range []string{"CallStaticIntMethod", "dvmCallMethodV"} {
		sys.VM.HookInternal(name, dvm.InternalHook{After: func(ctx *dvm.CallCtx) {
			seen++
			if ctx.JavaMethod == nil || ctx.JavaMethod.Name != "innerJava" {
				t.Errorf("%s After hook sees method %v, want innerJava", name, ctx.JavaMethod)
			}
		}})
	}
	if res := a.Run(spec.EntryClass, spec.EntryMethod, nil, nil); res.Verdict != core.VerdictLeak {
		t.Fatalf("verdict %v (fault %v), want leak", res.Verdict, res.Fault)
	}
	if seen != 12 {
		t.Errorf("After hooks ran %d times, want 12", seen)
	}
}
