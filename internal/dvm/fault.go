package dvm

import (
	"fmt"

	"repro/internal/dex"
	"repro/internal/fault"
)

// Fault-injection sites owned by the DVM layer.
const (
	// SiteInvoke is probed at every method invocation entry.
	SiteInvoke = "dvm.invoke"
	// SiteJNIBridge is probed at every Java→native JNI crossing.
	SiteJNIBridge = "dvm.jni.bridge"
	// SiteHeapAlloc is probed at every heap allocation (fires as a panic,
	// exercising the containment path: allocation has no error return).
	SiteHeapAlloc = "dvm.heap.alloc"
)

func init() {
	fault.RegisterSite(SiteInvoke, "dvm")
	fault.RegisterSite(SiteJNIBridge, "dvm")
	fault.RegisterSite(SiteHeapAlloc, "dvm")
}

// faultf builds a typed DVM-layer guest fault with method context.
func (vm *VM) faultf(k fault.Kind, m *dex.Method, format string, args ...interface{}) *fault.Fault {
	f := &fault.Fault{Kind: k, Layer: "dvm", Detail: fmt.Sprintf(format, args...)}
	if m != nil {
		f.Method = m.FullName()
	}
	return f
}

// javaBudgetFault reports Java watchdog exhaustion (maps to Timeout).
func (vm *VM) javaBudgetFault(m *dex.Method) *fault.Fault {
	return vm.faultf(fault.BudgetExceeded, m, "java instruction budget exhausted")
}
