package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dex"
)

// heapGenApp is app i of a stream of distinct apps: its own class name and
// its own native library (the XOR key differs), a tainted argument, eight
// JNI crossings (enough to build a fused chain) and a Network.send sink.
func heapGenApp(i int) core.AppSpec {
	class := fmt.Sprintf("Lcom/ndroid/heap/App%d;", i)
	source := fmt.Sprintf(`
Java_work:
	MOV R0, R2
	EOR R0, R0, #%d
	ADD R0, R0, #1
	BX LR
`, i%251+1)
	return core.AppSpec{
		Name: fmt.Sprintf("heap-%d", i), EntryClass: class, EntryMethod: "run",
		Install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib(fmt.Sprintf("libheap%d.so", i), source)
			if err != nil {
				return err
			}
			cb := dex.NewClass(class)
			cb.NativeMethod("work", "II", dex.AccStatic, 0)
			cb.Method("run", "V", dex.AccStatic, 4).
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(3).
				InvokeVirtual("Ljava/lang/String;", "length", "I", 3).
				MoveResult(0).
				Const(1, 8).
				Label("cross").
				IfZ(1, dex.Le, "sink").
				InvokeStatic(class, "work", "II", 0).
				MoveResult(0).
				BinLit(dex.Sub, 1, 1, 1).
				Goto("cross").
				Label("sink").
				InvokeStatic("Ljava/lang/String;", "valueOf", "LI", 0).
				MoveResult(3).
				ConstString(2, "collect.heap.example").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 2, 3).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(class, "work", prog, "Java_work")
		},
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRunnerLiveHeapBounded runs 2,000 distinct apps through one Runner, as
// a service worker does (fingerprint, then analyze), and checks that a
// snapshot restore releases what each app installed: the live heap after a
// full GC at app 2,000 stays within 2 MB of its value at app 200.
func TestRunnerLiveHeapBounded(t *testing.T) {
	r, err := core.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	const n, warm, slack = 2000, 200, 2 << 20
	var at200 uint64
	for i := 1; i <= n; i++ {
		spec := heapGenApp(i)
		if _, _, err := r.Fingerprint(spec); err != nil {
			t.Fatalf("app %d: fingerprint: %v", i, err)
		}
		rep := core.AnalyzeApp(spec, core.AnalyzeOptions{Runner: r, FlowLog: true})
		if v := rep.Verdict(); v != core.VerdictLeak {
			t.Fatalf("app %d: verdict %v (chain %s), want leak", i, v, rep.ChainString())
		}
		if i == warm {
			at200 = liveHeap()
		}
	}
	at2000 := liveHeap()
	runtime.KeepAlive(r)
	t.Logf("live heap: %d B at app %d, %d B at app %d", at200, warm, at2000, n)
	if at2000 > at200+slack {
		t.Errorf("live heap grew %d B from app %d to app %d (slack %d B)", at2000-at200, warm, n, slack)
	}
}
