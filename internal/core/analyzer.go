package core

import (
	"fmt"
	"strings"

	"repro/internal/arm"
	"repro/internal/dex"
	"repro/internal/dvm"
	"repro/internal/surface"
	"repro/internal/taint"
)

// Mode selects which analysis stack runs on top of the emulated system.
type Mode int

// Analysis modes.
const (
	// ModeVanilla runs the app with no taint tracking (stock Android).
	ModeVanilla Mode = iota + 1
	// ModeTaintDroid enables only TaintDroid's in-DVM tracking with the
	// naive JNI return policy — the paper's baseline, which misses the
	// Table I cases 1', 2, 3, and 4.
	ModeTaintDroid
	// ModeNDroid enables TaintDroid plus all five NDroid engines.
	ModeNDroid
	// ModeDroidScope approximates the DroidScope baseline: whole-system
	// instruction tracing with no JNI-semantic shortcuts and VMI-style
	// per-instruction semantic reconstruction on the Java side.
	ModeDroidScope
)

var modeNames = map[Mode]string{
	ModeVanilla:    "vanilla",
	ModeTaintDroid: "taintdroid",
	ModeNDroid:     "ndroid",
	ModeDroidScope: "droidscope",
}

// String names the mode.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ModeFromName resolves a mode by its String name. Persistent artifacts
// (service verdict records) store mode names rather than raw ints so a
// renumbering invalidates cleanly instead of silently remapping.
func ModeFromName(name string) (Mode, bool) {
	for m, n := range modeNames {
		if n == name {
			return m, true
		}
	}
	return 0, false
}

// Leak is one detected information leak: tainted data reaching a sink.
type Leak struct {
	Sink    string // function name: "sendto", "fprintf", "Network.send", ...
	Dest    string // host, file path, or descriptor description
	Tag     taint.Tag
	Data    []byte
	Context string // where the sink fired: "java" or "native"
}

// String renders a one-line description.
func (l Leak) String() string {
	data := string(l.Data)
	if len(data) > 60 {
		data = data[:57] + "..."
	}
	return fmt.Sprintf("[%s] %s -> %s %v %q", l.Context, l.Sink, l.Dest, l.Tag, data)
}

// Leaks is a leak list: an analyzer's, or one run's.
type Leaks []Leak

// Detected reports whether any leak carrying the tag was found.
func (ls Leaks) Detected(tag taint.Tag) bool {
	for _, l := range ls {
		if l.Tag&tag != 0 {
			return true
		}
	}
	return false
}

// FlowLog accumulates the human-readable trace shown in the paper's Figs 6-9.
type FlowLog struct {
	Enabled bool
	Lines   []string
}

// Addf appends a formatted line when logging is enabled.
func (fl *FlowLog) Addf(format string, args ...interface{}) {
	if !fl.Enabled {
		return
	}
	fl.Lines = append(fl.Lines, fmt.Sprintf(format, args...))
}

// Add appends a preformatted line when logging is enabled. The JNI entry hook
// formats each native method's entry line once per attempt and emits it
// through here, bypassing Sprintf on the hot path.
func (fl *FlowLog) Add(line string) {
	if !fl.Enabled {
		return
	}
	fl.Lines = append(fl.Lines, line)
}

// String joins the log.
func (fl *FlowLog) String() string { return strings.Join(fl.Lines, "\n") }

// Contains reports whether any line contains the substring.
func (fl *FlowLog) Contains(sub string) bool {
	for _, l := range fl.Lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// Analyzer drives one app execution under a chosen analysis mode. It owns the
// NDroid engines and collects leaks and the flow log.
type Analyzer struct {
	Sys  *System
	Mode Mode

	Engine   *TaintEngine
	Policies *PolicyMap
	Tracer   *Tracer
	ML       *Multilevel
	Recon    *Reconstructor

	// Live is the process-wide taint-presence aggregate behind the
	// demand-driven fast path; nil when the gate is disabled.
	Live *taint.Liveness

	// Budget caps guest work per Run: it bounds both the Java instruction
	// count and each JNI call's native instruction count. 0 means
	// DefaultBudget. Exhaustion surfaces as a BudgetExceeded fault, which Run
	// classifies as VerdictTimeout.
	Budget uint64

	Leaks Leaks
	Log   FlowLog

	// Surface is the JNI surface observer, always attached. It records
	// discovered natives, registration events, reflection dispatches,
	// throttled call counts and unreleased GetStringUTFChars handles; its Map
	// lands in RunResult.Surface. It never writes the flow log.
	Surface *surface.Observer

	// InstrumentationCalls counts DVM-hook instrumentation bodies that
	// actually ran (the quantity multilevel hooking reduces).
	InstrumentationCalls uint64

	// jniEntries holds onJNIEntry's per-method binding for this attempt.
	jniEntries map[*dex.Method]*jniEntry

	// javaVMIWalks counts DroidScope-mode per-instruction reconstructions.
	javaVMIWalks uint64
}

// NewAnalyzer attaches an analysis mode to a system, with the zero-taint
// fast path (gate) enabled. Call after the app's classes and native
// libraries are loaded (hook placement consults the OS-level view
// reconstructor for module ranges).
func NewAnalyzer(sys *System, mode Mode) *Analyzer {
	return newAnalyzer(sys, mode, true)
}

// NewAnalyzerNoGate builds the same stack always-instrumented (the PR 1
// configuration), kept for A/B soundness tests and the ablation bench.
func NewAnalyzerNoGate(sys *System, mode Mode) *Analyzer {
	return newAnalyzer(sys, mode, false)
}

func newAnalyzer(sys *System, mode Mode, gate bool) *Analyzer {
	// The engine binds the System's shadow-taint map, which snapshot restore
	// rewinds.
	a := &Analyzer{
		Sys:      sys,
		Mode:     mode,
		Engine:   NewTaintEngineOn(sys.CPU, sys.Taint),
		Policies: NewPolicyMap(),
		Recon:    &Reconstructor{Mem: sys.Mem, InitTaskAddr: sys.Kern.InitTaskAddr},
	}
	// Re-registration of an already-bound native method is an observable
	// event in every mode.
	sys.VM.OnRegisterNatives = func(m *dex.Method, old, new uint32) {
		a.Log.Addf("RegisterNatives %s 0x%x -> 0x%x", m.FullName(), old, new)
	}
	// The JNI surface observer runs in every mode (vanilla included): the
	// surface map is part of the verdict record, so it must not depend on the
	// analysis stack. Bindings that happened at install time — before this
	// analyzer existed — are seeded in deterministic class order; everything
	// later arrives through the VM/CPU observation hooks. None of these
	// callbacks touch the flow log.
	a.Surface = surface.NewObserver()
	a.seedSurface()
	sys.VM.OnJNICall = func(m *dex.Method) { a.Surface.Call(m.FullName()) }
	sys.VM.OnNativeBind = func(m *dex.Method, old, new uint32, dynamic bool) {
		a.Surface.Register(m.FullName(), dynamic, old, new)
	}
	sys.VM.OnReflectCall = func(m *dex.Method) { a.Surface.Reflect(m.FullName()) }
	sys.VM.OnUnreleased = func(m *dex.Method, site uint32) { a.Surface.Unreleased(m.FullName(), site) }
	sys.CPU.OnCodeWrite = a.Surface.CodeWrite
	if gate {
		a.Live = taint.NewLiveness()
		a.Engine.AttachLiveness(a.Live)
		sys.VM.AttachLiveness(a.Live)
		sys.VM.GateJava = true
		sys.CPU.AttachLiveness(a.Live)
		// The native block gate is enabled per-mode: NDroid gets it
		// (installNDroid); the DroidScope baseline deliberately keeps
		// trace-everything semantics, and vanilla has no tracer to skip.
		sys.CPU.UseTaintGate = mode == ModeNDroid
	} else {
		sys.VM.GateJava = false
		sys.CPU.UseTaintGate = false
	}
	switch mode {
	case ModeVanilla:
		sys.VM.TaintJava = false
	case ModeTaintDroid:
		sys.VM.TaintJava = true
		a.hookJavaSink()
	case ModeNDroid:
		sys.VM.TaintJava = true
		a.hookJavaSink()
		a.installNDroid()
	case ModeDroidScope:
		sys.VM.TaintJava = true
		a.hookJavaSink()
		a.installDroidScope()
	}
	return a
}

// seedSurface records every native method already bound at analyzer attach
// time (install runs before NewAnalyzer) as a static registration, in sorted
// class order so the seeded map is deterministic.
func (a *Analyzer) seedSurface() {
	vm := a.Sys.VM
	for _, name := range vm.Classes() {
		c, ok := vm.Class(name)
		if !ok {
			continue
		}
		for _, m := range c.Methods {
			if m.IsNative() && m.NativeAddr != 0 {
				a.Surface.Register(m.FullName(), false, 0, m.NativeAddr)
			}
		}
	}
}

// crossingClean reports that a JNI crossing may skip its taint walks
// entirely: the gate is on, no counted taint exists in any layer (memory
// bytes, reference shadow entries, the Java-side latch), and the CPU's
// shadow registers are all clear — so every walk input is provably zero.
func (a *Analyzer) crossingClean() bool {
	return a.Live != nil && a.Live.Total() == 0 && a.Sys.CPU.TaintedRegs() == 0
}

// hookJavaSink collects TaintDroid's Java-context sink reports.
func (a *Analyzer) hookJavaSink() {
	a.Sys.VM.JavaLeakFn = func(l dvm.JavaLeak) {
		a.Leaks = append(a.Leaks, Leak{
			Sink: l.Sink, Dest: l.Dest, Tag: l.Tag,
			Data: []byte(l.Data), Context: "java",
		})
		a.Log.Addf("JavaSink[%s] dest=%s taint=%v", l.Sink, l.Dest, l.Tag)
	}
}

// installNDroid wires all five engines.
func (a *Analyzer) installNDroid() {
	vm := a.Sys.VM
	cpu := a.Sys.CPU

	// Cache the native-code range once; the VMI walk is the authoritative
	// source but too slow to run per branch event.
	lo, hi := a.nativeRangeFromVMI()
	inNative := func(addr uint32) bool { return addr >= lo && addr < hi }

	// Taint engine follows GC moves.
	vm.OnGCMove = a.Engine.OnGCMove

	// Multilevel hooking over the branch stream; the instruction tracer over
	// the instruction stream.
	a.ML = NewMultilevel(vm, inNative)
	a.ML.BindCPU(cpu)
	cpu.BranchFn = func(_ *arm.CPU, from, to uint32) { a.ML.OnBranch(from, to) }

	a.Tracer = NewTracer(a.Engine)
	a.Tracer.InRange = inNative
	cpu.Tracer = a.Tracer
	cpu.UseDecodeCache = true
	cpu.UseBlockCache = true

	a.installDVMHooks()
	a.installSysLib()
}

// nativeRangeFromVMI finds the third-party native code range by parsing the
// guest task list, as NDroid's reconstructor does (§V-F, §V-G).
func (a *Analyzer) nativeRangeFromVMI() (uint32, uint32) {
	task, ok := a.Recon.FindTask(a.Sys.Task.Comm)
	if !ok {
		return 0, 0
	}
	lo, hi := ^uint32(0), uint32(0)
	for _, v := range task.VMAs {
		if strings.HasPrefix(v.Name, "/data/app-lib/") {
			if v.Start < lo {
				lo = v.Start
			}
			if v.End > hi {
				hi = v.End
			}
		}
	}
	if hi == 0 {
		return 0, 0
	}
	return lo, hi
}

// installDroidScope configures the DroidScope-style baseline: trace every
// instruction everywhere (no selective range, no modeled libc), and pay a
// VMI reconstruction walk on every interpreted Dalvik instruction.
func (a *Analyzer) installDroidScope() {
	cpu := a.Sys.CPU
	a.Tracer = NewTracer(a.Engine)
	a.Tracer.InRange = nil // whole system
	cpu.Tracer = a.Tracer
	cpu.UseDecodeCache = true
	cpu.UseBlockCache = true

	vm := a.Sys.VM
	// Every executed Dalvik instruction calls the observer, so DroidScope
	// pays the full reconstruction cost by construction.
	vm.SetJavaStepFn(func(th *dvm.Thread, m *dex.Method, pc int, insn *dex.Insn) {
		// Reconstruct the Dalvik-level view from raw guest memory: walk the
		// task list to find the process, then read the current frame's save
		// area — the work DroidScope re-derives from machine state (§II, §V-F).
		a.javaVMIWalks++
		if f := th.CurrentFrame(); f != nil {
			_ = a.Sys.Mem.Read32(f.FP + uint32(8*m.NumRegs)) // prev frame ptr
			_ = a.Sys.Mem.Read32(a.Recon.InitTaskAddr)       // task list head
		}
	})
}

// report records a native-context leak.
func (a *Analyzer) report(sink, dest string, tag taint.Tag, data []byte) {
	if tag == 0 {
		return
	}
	a.Leaks = append(a.Leaks, Leak{
		Sink: sink, Dest: dest, Tag: tag,
		Data: append([]byte(nil), data...), Context: "native",
	})
	a.Log.Addf("SinkHandler[%s] dest=%s taint=%v data=%q", sink, dest, tag, truncate(data))
}

func truncate(b []byte) string {
	s := string(b)
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

// VMIWalks reports how many per-instruction semantic reconstructions the
// DroidScope mode performed.
func (a *Analyzer) VMIWalks() uint64 { return a.javaVMIWalks }

// LeaksAt returns leaks that reached the given sink.
func (a *Analyzer) LeaksAt(sink string) []Leak {
	var out []Leak
	for _, l := range a.Leaks {
		if l.Sink == sink {
			out = append(out, l)
		}
	}
	return out
}

// fdDesc describes a descriptor for sink reports.
func (a *Analyzer) fdDesc(fd int32) string {
	return a.Sys.Kern.FDDesc(a.Sys.Task, fd)
}
