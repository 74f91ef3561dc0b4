package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/surface"
	"repro/internal/taint"
)

// Injection sites owned by the core layer. SiteSysLibModel sits inside the
// System Lib Hook Engine's modeled-call wrapper, which only exists under
// NDroid — so an injected fault there genuinely disappears one rung down the
// degradation ladder. SiteTracerInsn sits inside the instruction tracer, on
// both the dynamic dispatch path and (when arming predates translation) the
// bound per-instruction closures.
const (
	SiteSysLibModel = "core.syslib.model"
	SiteTracerInsn  = "core.tracer.insn"
)

func init() {
	fault.RegisterSite(SiteSysLibModel, "core")
	fault.RegisterSite(SiteTracerInsn, "core")
}

// DefaultBudget is the per-run watchdog budget (Java instructions, and native
// instructions per JNI call) when Analyzer.Budget is zero. Deterministic
// instruction counts, never wall-clock, so a run that times out does so
// identically on every machine.
const DefaultBudget = 16 << 20

// Verdict is the structured outcome of one contained analysis run.
type Verdict int

// The verdict lattice: every run lands on exactly one of these.
const (
	// VerdictClean: the run completed and no tainted data reached a sink.
	VerdictClean Verdict = iota + 1
	// VerdictLeak: the run completed and at least one leak was detected.
	VerdictLeak
	// VerdictFault: the guest faulted (or an internal invariant tripped) and
	// the run was abandoned with its partial flow log.
	VerdictFault
	// VerdictTimeout: a watchdog instruction budget ran out.
	VerdictTimeout
)

var verdictNames = map[Verdict]string{
	VerdictClean:   "clean",
	VerdictLeak:    "leak",
	VerdictFault:   "fault",
	VerdictTimeout: "timeout",
}

// String names the verdict.
func (v Verdict) String() string {
	if s, ok := verdictNames[v]; ok {
		return s
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// VerdictFromName resolves a verdict by its String name (see ModeFromName).
func VerdictFromName(name string) (Verdict, bool) {
	for v, n := range verdictNames {
		if n == name {
			return v, true
		}
	}
	return 0, false
}

// verdictForFault maps a fault to its verdict: budget exhaustion (including
// guest heap exhaustion, which is a space budget) is a timeout; everything
// else is a fault.
func verdictForFault(f *fault.Fault) Verdict {
	if f.Kind == fault.BudgetExceeded {
		return VerdictTimeout
	}
	return VerdictFault
}

// RunResult is the outcome of one Analyzer.Run: the verdict, the fault (for
// Fault/Timeout verdicts), and the partial evidence gathered up to the stop
// point — leaks seen, flow-log lines, and how much guest work ran.
type RunResult struct {
	Verdict Verdict
	Fault   *fault.Fault // nil for Clean/Leak

	// Thrown reports an uncaught Java exception. That is guest-visible
	// behavior, not an analyzer fault: the run still completes (Clean/Leak).
	Thrown bool

	Leaks    Leaks
	LogLines []string

	JavaInsns   uint64 // Dalvik instructions retired by this run
	NativeInsns uint64 // ARM instructions retired by this run

	// Trace-fusion activity: JNI crossings retired, fused chains built,
	// crossings served by a fused chain, and chains dropped by deopt. All
	// zero when the run had fusion off.
	JNICrossings uint64
	FusedChains  uint64
	FusedCalls   uint64
	FuseDeopts   uint64

	// Surface is the JNI surface map gathered by this attempt (nil only if
	// no analyzer ran). It is captured in the same deferred block as
	// the other evidence, so Fault/Timeout verdicts keep the partial map
	// built up to the stop point. Surface.Truncated is the typed,
	// verdict-visible degradation signal for event-budget exhaustion.
	Surface *surface.Map

	// TracedInsns is the tracer's handler-invocation count: the native
	// instructions that went through a Table V handler (0 without a tracer).
	TracedInsns uint64

	// SummaryApplied is always 0: native taint summaries were deleted. It is
	// kept only until a benchmark change drops ndbench's summary.* per-layer
	// metrics, which read it.
	SummaryApplied uint64
}

// Run invokes the entry point under full fault containment and classifies
// the outcome. Guest faults arriving on the error path and host panics
// arriving through recover both land in the same *fault.Fault taxonomy; the
// partial flow log and leak list survive in every case, so a market study
// keeps the evidence gathered before a hostile app blew up.
//
// The watchdog is armed here: the VM gets an absolute Java-instruction
// ceiling of (already-retired + budget) and a per-JNI-call native budget.
func (a *Analyzer) Run(class, method string, args []uint32, taints []taint.Tag) (res RunResult) {
	budget := a.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	vm := a.Sys.VM
	vm.JavaBudget = vm.JavaInsnCount + budget
	vm.NativeBudget = budget
	startJava := vm.JavaInsnCount
	startNative := a.Sys.CPU.InsnCount
	startCross := vm.JNICrossings
	startChains := vm.JavaFusedChains
	startFused := vm.JavaFusedCalls
	startDeopts := vm.JavaFuseDeopts
	defer func() {
		if r := recover(); r != nil {
			res.Fault = fault.FromPanic("core", r)
			res.Verdict = verdictForFault(res.Fault)
		}
		res.Leaks = append([]Leak(nil), a.Leaks...)
		res.LogLines = append([]string(nil), a.Log.Lines...)
		res.JavaInsns = vm.JavaInsnCount - startJava
		res.NativeInsns = a.Sys.CPU.InsnCount - startNative
		res.JNICrossings = vm.JNICrossings - startCross
		res.FusedChains = vm.JavaFusedChains - startChains
		res.FusedCalls = vm.JavaFusedCalls - startFused
		res.FuseDeopts = vm.JavaFuseDeopts - startDeopts
		res.Surface = a.Surface.Map()
		if a.Tracer != nil {
			res.TracedInsns = a.Tracer.Traced
		}
		vm.JavaBudget, vm.NativeBudget = 0, 0
	}()

	_, _, thrown, err := vm.InvokeByName(class, method, args, taints)
	if err != nil {
		res.Fault = fault.AsFault(err, "core")
		res.Verdict = verdictForFault(res.Fault)
		return res
	}
	res.Thrown = thrown != nil
	if len(a.Leaks) > 0 {
		res.Verdict = VerdictLeak
	} else {
		res.Verdict = VerdictClean
	}
	return res
}

// AppSpec is the core-level description of one analyzable app: how to load
// it into a fresh System and where to enter. The apps package adapts its
// registry entries to this shape.
type AppSpec struct {
	Name        string
	EntryClass  string
	EntryMethod string
	Install     func(sys *System) error
}

// FuseMode selects whether hot JNI crossing chains compile to fused closures.
type FuseMode int

// Fusion settings for AnalyzeOptions.Fuse.
const (
	// FuseDefault follows the analyzer default (fusion on).
	FuseDefault FuseMode = iota
	// FuseOff disables trace fusion: every crossing takes the unfused bridge.
	// The ablation/parity baseline.
	FuseOff
)

// AnalyzeOptions configures AnalyzeApp.
type AnalyzeOptions struct {
	// Mode is the starting analysis mode (default ModeNDroid).
	Mode Mode
	// Fuse controls cross-boundary trace fusion (default: on).
	Fuse FuseMode
	// Budget overrides DefaultBudget when nonzero.
	Budget uint64
	// FlowLog enables flow-log capture on every attempt.
	FlowLog bool
	// Runner serves every attempt from its snapshot-restored System. Nil
	// gives each attempt a new Runner that boots a fresh System and is never
	// restored: the reference the snapshot-parity suites compare against.
	// Verdicts and flow logs are byte-identical either way; only the reset
	// cost changes.
	Runner *Runner
}

// internalRetries bounds same-mode retries after an InternalError fault: a
// contained host bug may be transient state corruption, and one more attempt
// on a rewound (or, after a failed restore, rebooted) System is worth trying.
const internalRetries = 1

// Attempt records one run of the degradation ladder.
type Attempt struct {
	Mode   Mode
	Result RunResult
}

// AppReport is the per-app outcome: the final attempt plus the full chain
// (mode-degradation steps and internal retries, in order).
type AppReport struct {
	Name     string
	Final    Attempt
	Chain    []Attempt
	Degraded bool // true when any mode-degradation step was taken
}

// Verdict is the final attempt's verdict.
func (r *AppReport) Verdict() Verdict { return r.Final.Result.Verdict }

// ChainString renders the degradation chain, e.g.
// "ndroid:fault -> taintdroid:fault -> vanilla:clean".
func (r *AppReport) ChainString() string {
	s := ""
	for i, att := range r.Chain {
		if i > 0 {
			s += " -> "
		}
		s += att.Mode.String() + ":" + att.Result.Verdict.String()
	}
	return s
}

// modeDown returns the next rung of the degradation ladder: full NDroid
// degrades to TaintDroid-only (no native engines), which degrades to vanilla
// execution (no taint tracking at all). Vanilla and the DroidScope baseline
// have nowhere to go.
func modeDown(m Mode) (Mode, bool) {
	switch m {
	case ModeNDroid:
		return ModeTaintDroid, true
	case ModeTaintDroid:
		return ModeVanilla, true
	default:
		return 0, false
	}
}

// AnalyzeApp runs one app under per-app isolation: every attempt runs on a
// Runner and starts from the post-boot state (nothing survives a faulting
// run), and the outcome decides the next rung:
//
//   - A Fault raised by the native-side analysis layers ("arm", "core" —
//     the tracer, syslib models, and CPU only run under the heavier modes)
//     degrades one mode down and retries, recording the chain. The app may
//     still complete — with weaker coverage — when the fault was confined
//     to instrumentation the lower mode does not install.
//   - An InternalError gets one bounded same-mode retry.
//   - Timeouts and dvm/dex-layer faults are properties of the guest program
//     itself; no lower mode would change them, so they are final.
func AnalyzeApp(spec AppSpec, opts AnalyzeOptions) AppReport {
	mode := opts.Mode
	if mode == 0 {
		mode = ModeNDroid
	}
	internalLeft := internalRetries

	rep := AppReport{Name: spec.Name}
	for {
		r := opts.Runner
		if r == nil {
			r = newRunner(nil)
		}
		res := r.analyzeOnce(spec, mode, opts)
		att := Attempt{Mode: mode, Result: res}
		rep.Chain = append(rep.Chain, att)
		rep.Final = att

		if res.Verdict == VerdictFault && res.Fault != nil {
			if res.Fault.Kind == fault.InternalError && internalLeft > 0 {
				internalLeft--
				continue
			}
			if res.Fault.Layer == "arm" || res.Fault.Layer == "core" {
				if down, ok := modeDown(mode); ok {
					mode = down
					rep.Degraded = true
					continue
				}
			}
		}
		return rep
	}
}
