package dvm

import (
	"testing"
	"time"

	"repro/internal/arm"
	"repro/internal/dex"
	"repro/internal/mem"
)

// within fails t unless fn returns inside a generous bound. A superclass
// walk that follows a cycle never returns, so the bound turns a hang into a
// failure instead of a stalled test binary.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return: superclass walk follows the cycle", what)
	}
}

// TestCyclicSuperclassWalksEnd registers A extends B, B extends A (no
// verifier admits it, but a hostile app can register it) and drives the
// three superclass walks that resolve methods and handlers. Each must end
// after one lap with the outcome an acyclic miss gets: the "unresolvable
// method" throwable, no handler match, and a GetMethodID of 0.
func TestCyclicSuperclassWalksEnd(t *testing.T) {
	vm := newVM(t)
	const a, b = "Lcom/cyc/A;", "Lcom/cyc/B;"
	vm.RegisterClass(dex.NewClass(a).Super(b).Build())
	vm.RegisterClass(dex.NewClass(b).Super(a).Build())

	drv := dex.NewClass("Lcom/cyc/Drv;")
	drv.Method("call", "V", dex.AccStatic, 1).
		NewInstance(0, a).
		InvokeVirtual(a, "missing", "V", 0).
		ReturnVoid().
		Done()
	drv.Method("raise", "I", dex.AccStatic, 1).
		Label("try").
		NewInstance(0, a).
		Throw(0).
		Label("end").
		Const(0, 1).
		Label("h").
		Return(0).
		Try("try", "end", "h", "Ljava/lang/RuntimeException;").
		Done()
	vm.RegisterClass(drv.Build())

	within(t, "virtual dispatch", func() {
		_, _, thrown, err := vm.InvokeByName("Lcom/cyc/Drv;", "call", nil, nil)
		if err != nil || thrown == nil {
			t.Errorf("invoke of a missing method: thrown %v, err %v; want the unresolvable-method throwable", thrown, err)
			return
		}
		if msg := vm.objects[thrown.Fields[0]]; msg == nil || msg.Str != "unresolvable method "+a+".missing" {
			t.Errorf("thrown message = %+v, want unresolvable method", msg)
		}
	})

	within(t, "handler search", func() {
		_, _, thrown, err := vm.InvokeByName("Lcom/cyc/Drv;", "raise", nil, nil)
		if err != nil || thrown == nil || thrown.Class.Name != a {
			t.Errorf("throw of an A past a RuntimeException handler: thrown %v, err %v; want the A uncaught", thrown, err)
		}
	})

	within(t, "GetMethodID", func() {
		cls, _ := vm.Class(a)
		name := vm.allocAddr(16)
		vm.Mem.WriteCString(name, "missing")
		c := arm.New(mem.New())
		c.R[1] = vm.AddLocalRef(vm.classObject(cls))
		c.R[2] = name
		jniGetMethodID(vm, c, &CallCtx{})
		if c.R[0] != 0 {
			t.Errorf("GetMethodID of a missing method = %#x, want 0", c.R[0])
		}
	})
}
