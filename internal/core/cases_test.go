package core_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dvm"
	"repro/internal/taint"
)

// runApp installs and runs one evaluation app under a mode, returning the
// analyzer with its collected leaks.
func runApp(t *testing.T, app *apps.App, mode core.Mode) *core.Analyzer {
	t.Helper()
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Install(sys); err != nil {
		t.Fatalf("install %s: %v", app.Name, err)
	}
	a := core.NewAnalyzer(sys, mode)
	a.Log.Enabled = true
	if err := app.Run(sys); err != nil {
		t.Fatalf("run %s under %s: %v", app.Name, mode, err)
	}
	return a
}

// TestTable1DetectionMatrix verifies the paper's central claim (§IV, Table I):
// TaintDroid detects only Case 1; NDroid detects every case; neither reports
// the benign control.
func TestTable1DetectionMatrix(t *testing.T) {
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			td := runApp(t, app, core.ModeTaintDroid)
			nd := runApp(t, app, core.ModeNDroid)

			if app.Case == "benign" {
				if len(td.Leaks) != 0 || len(nd.Leaks) != 0 {
					t.Fatalf("benign app reported leaks: td=%v nd=%v", td.Leaks, nd.Leaks)
				}
				return
			}
			if got := td.Leaks.Detected(app.ExpectTag); got != app.DetectedByTaintDroid {
				t.Errorf("TaintDroid detection = %v, want %v (leaks: %v)",
					got, app.DetectedByTaintDroid, td.Leaks)
			}
			if !nd.Leaks.Detected(app.ExpectTag) {
				t.Errorf("NDroid missed the leak (case %s); log:\n%s", app.Case, nd.Log.String())
			}
			if app.ExpectSink != "" {
				if leaks := nd.LeaksAt(app.ExpectSink); len(leaks) == 0 {
					t.Errorf("NDroid: no leak at sink %q; got %v", app.ExpectSink, nd.Leaks)
				}
			}
		})
	}
}

// TestQQPhoneBookFlow checks the Fig. 6 details: the tainted URL leaves for
// the QQ server and the flow log shows the NewStringUTF taint hand-off.
func TestQQPhoneBookFlow(t *testing.T) {
	app, _ := apps.ByName("qqphonebook")
	a := runApp(t, app, core.ModeNDroid)

	leaks := a.LeaksAt("Network.send")
	if len(leaks) != 1 {
		t.Fatalf("want 1 Java-sink leak, got %v", a.Leaks)
	}
	l := leaks[0]
	if l.Dest != "info.3g.qq.com" {
		t.Errorf("dest = %q", l.Dest)
	}
	if l.Tag != taint.SMS|taint.Contacts {
		t.Errorf("tag = %v, want 0x202 (SMS|Contacts)", l.Tag)
	}
	wantPrefix := "http://sync.3g.qq.com/xpimlogin?sid=" + dvm.ContactName
	if string(l.Data[:len(wantPrefix)]) != wantPrefix {
		t.Errorf("leaked data = %q", l.Data)
	}
	for _, want := range []string{"NewStringUTF Begin", "dvmCreateStringFromCstr", "add taint", "realStringAddr"} {
		if !a.Log.Contains(want) {
			t.Errorf("flow log missing %q:\n%s", want, a.Log.String())
		}
	}
	// The bytes really left through the emulated network.
	sent := a.Sys.Kern.Net.SentTo("info.3g.qq.com")
	if len(sent) != 1 {
		t.Fatalf("network log: %q", sent)
	}
}

// TestEPhoneFlow checks Fig. 7: the SIP REGISTER with the contact reaches
// softphone.comwave.net through the native sendto sink.
func TestEPhoneFlow(t *testing.T) {
	app, _ := apps.ByName("ephone")
	a := runApp(t, app, core.ModeNDroid)

	leaks := a.LeaksAt("sendto")
	if len(leaks) != 1 {
		t.Fatalf("want sendto leak, got %v", a.Leaks)
	}
	l := leaks[0]
	if l.Dest != "softphone.comwave.net" {
		t.Errorf("dest = %q", l.Dest)
	}
	if !l.Tag.Has(taint.Contacts) {
		t.Errorf("tag = %v", l.Tag)
	}
	want := "REGISTER sip:softphone.comwave.net From: " + dvm.ContactName
	if string(l.Data) != want {
		t.Errorf("data = %q, want %q", l.Data, want)
	}
}

// TestPoCCase2Flow checks Fig. 8: contact id/name/email written to
// /sdcard/CONTACTS through fprintf, with the trust calls logged.
func TestPoCCase2Flow(t *testing.T) {
	app, _ := apps.ByName("poc-case2")
	a := runApp(t, app, core.ModeNDroid)

	leaks := a.LeaksAt("fprintf")
	if len(leaks) != 1 {
		t.Fatalf("want fprintf leak, got %v", a.Leaks)
	}
	l := leaks[0]
	if l.Dest != "/sdcard/CONTACTS" {
		t.Errorf("dest = %q", l.Dest)
	}
	want := dvm.ContactID + " " + dvm.ContactName + " " + dvm.ContactEmail
	if string(l.Data) != want {
		t.Errorf("data = %q, want %q", l.Data, want)
	}
	// The file on the emulated sdcard has the contents.
	content, ok := a.Sys.Kern.FS.ReadFile("/sdcard/CONTACTS")
	if !ok || string(content) != want {
		t.Errorf("file = %q, ok=%v", content, ok)
	}
	for _, wantLog := range []string{
		"TrustCallHandler[GetStringUTFChars] begin",
		"TrustCallHandler[fopen] begin",
		"SinkHandler[fprintf] begin",
		"TrustCallHandler[fclose] begin",
	} {
		if !a.Log.Contains(wantLog) {
			t.Errorf("flow log missing %q", wantLog)
		}
	}
}

// TestPoCCase3Flow checks Fig. 9: the taint crosses native code, comes back
// through NewStringUTF + CallStaticVoidMethod, and the dvmInterpret hook
// places it into the callback's frame.
func TestPoCCase3Flow(t *testing.T) {
	app, _ := apps.ByName("poc-case3")
	a := runApp(t, app, core.ModeNDroid)

	leaks := a.LeaksAt("Network.send")
	if len(leaks) != 1 {
		t.Fatalf("want Java sink leak, got %v", a.Leaks)
	}
	l := leaks[0]
	if !l.Tag.Has(taint.PhoneNumber) || !l.Tag.Has(taint.IMSI) {
		t.Errorf("tag = %v", l.Tag)
	}
	want := dvm.DeviceLine1 + dvm.DeviceOperator
	if string(l.Data) != want {
		t.Errorf("data = %q, want %q", l.Data, want)
	}
	for _, wantLog := range []string{
		"add taint to new method frame",
		"dvmInterpret Begin: name=nativeCallback shorty=VL",
	} {
		if !a.Log.Contains(wantLog) {
			t.Errorf("flow log missing %q:\n%s", wantLog, a.Log.String())
		}
	}
}

// TestVanillaModeSeesNothing: without any taint tracking nothing is reported,
// but the data still flows (ground truth in the net log).
func TestVanillaModeSeesNothing(t *testing.T) {
	app, _ := apps.ByName("ephone")
	a := runApp(t, app, core.ModeVanilla)
	if len(a.Leaks) != 0 {
		t.Errorf("vanilla mode reported leaks: %v", a.Leaks)
	}
	if len(a.Sys.Kern.Net.SentTo("softphone.comwave.net")) != 1 {
		t.Error("data should still have left the device")
	}
}

// TestSourcePolicyLifecycle: policies are created at dvmCallJNIMethod and
// consumed at the method's first instruction.
func TestSourcePolicyLifecycle(t *testing.T) {
	app, _ := apps.ByName("case1")
	a := runApp(t, app, core.ModeNDroid)
	if a.Policies.Applied == 0 {
		t.Error("no SourcePolicy was ever applied")
	}
	if a.Policies.Len() != 0 {
		t.Errorf("%d policies left un-consumed", a.Policies.Len())
	}
}

// TestTracerRanOnNativeCode: the instruction tracer must have traced the
// app's native instructions but skipped the rest of the system.
func TestTracerRanOnNativeCode(t *testing.T) {
	app, _ := apps.ByName("case1")
	a := runApp(t, app, core.ModeNDroid)
	if a.Tracer.Traced == 0 {
		t.Error("tracer saw no native instructions")
	}
}

// TestMultilevelGating: the dvmCallMethod/dvmInterpret instrumentation fires
// for native-originated chains (poc-case3) and the state machine transitions.
func TestMultilevelGating(t *testing.T) {
	app, _ := apps.ByName("poc-case3")
	a := runApp(t, app, core.ModeNDroid)
	if a.ML.Transitions == 0 {
		t.Error("multilevel state machine never transitioned")
	}
	if a.ML.Level() != 0 {
		t.Errorf("chain level = %d at end, want 0 (balanced)", a.ML.Level())
	}
}

// TestDroidScopeModeDetectsLikeTaintDroid: the DroidScope baseline tracks the
// Java context like TaintDroid (the paper: no new flows beyond TaintDroid).
func TestDroidScopeModeDetectsLikeTaintDroid(t *testing.T) {
	app, _ := apps.ByName("case1")
	a := runApp(t, app, core.ModeDroidScope)
	if !a.Leaks.Detected(taint.IMEI) {
		t.Error("droidscope mode should detect case 1")
	}
	if a.Tracer.Traced == 0 {
		t.Error("droidscope mode should trace everything")
	}
	if a.VMIWalks() == 0 {
		t.Error("droidscope mode should pay per-instruction reconstruction")
	}
}
