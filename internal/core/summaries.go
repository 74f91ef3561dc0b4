package core

// Auto-generated native taint summaries (μDep-style). The static half lives
// in internal/summary: a taint-transfer dataflow over each candidate
// function's NativeCFG derives which return-register taints depend on which
// argument-register taints. This file owns the dynamic half — lazy per-lib
// synthesis (served through a cache so shared libs replay across apps),
// mutation-based validation in the live emulator, application at JNI
// crossings (suppress the instruction tracer, compute the return taint from
// the transfer), and eviction when RegisterNatives churn or self-modifying
// code invalidates the code the synthesis read.
//
// The soundness bar is the repo's usual one: flow logs and verdicts must be
// byte-identical with summaries on and off. A summary therefore only
// replaces tracing when (a) the static pass proved every instruction has an
// exact tracer mirror, (b) the return rows depend on nothing but the four
// argument cells the bridge models, and (c) — in validated mode — the
// transfer survived systematic single-cell input mutation in the emulator.
// Everything else stays on the full-tracing path, counted but silent: no
// summary decision may write the flow log.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/arm"
	"repro/internal/cas"
	"repro/internal/dvm"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/static"
	"repro/internal/summary"
	"repro/internal/taint"
)

// SiteSummaryValidate sits inside the mutation-validation harness. The site
// has absorbed semantics: an injected fault reads as a validation mismatch,
// so the summary is demoted to full tracing and the flow log is unchanged —
// the same containment story as a cache fault.
const SiteSummaryValidate = "core.summary.validate"

func init() {
	fault.RegisterSite(SiteSummaryValidate, "core")
}

// SummaryMode selects how auto-generated native taint summaries are used.
type SummaryMode int

// Summary settings for AnalyzeOptions.Summaries.
const (
	// SummaryOff disables summaries entirely: every third-party native
	// instruction is traced. The parity baseline.
	SummaryOff SummaryMode = iota
	// summaryStatic trusts statically sound, argument-only transfers without
	// dynamic confirmation. Value-dependent transfers the static pass
	// over-approximates can diverge from tracing, so this tier is no user
	// setting: it is a test oracle (export_test.go) showing why validation
	// is required.
	summaryStatic
	// SummaryValidated additionally requires each transfer to survive
	// mutation-based validation in the emulator before it is trusted; a
	// mismatch demotes the function to full tracing with a typed
	// SummaryRejected diagnostic. The production setting.
	SummaryValidated
)

var summaryModeNames = map[SummaryMode]string{
	SummaryOff:       "off",
	summaryStatic:    "static",
	SummaryValidated: "validated",
}

// String names the mode (the -summaries flag values).
func (m SummaryMode) String() string {
	if s, ok := summaryModeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("SummaryMode(%d)", int(m))
}

// ParseSummaryMode parses a -summaries flag value: off or validated.
func ParseSummaryMode(s string) (SummaryMode, error) {
	switch s {
	case "off":
		return SummaryOff, nil
	case "validated":
		return SummaryValidated, nil
	}
	return 0, fmt.Errorf("unknown summaries mode %q (want off|validated)", s)
}

// SummaryCache serves persisted per-library syntheses. The Runner implements
// it over its in-memory map and the content-addressed artifact store; a nil
// cache just synthesizes every time. Only the static synthesis is cached —
// validation verdicts depend on the concrete argument values observed at a
// live crossing and are re-derived per analyzer.
type SummaryCache interface {
	LoadSummaries(key string) (*summary.PortableLib, bool)
	StoreSummaries(key string, p *summary.PortableLib)
}

// summaryLibKey digests one loaded library image the same way the Runner's
// LibPrint does: load base plus code bytes, name excluded, so two apps
// shipping the same native code share the artifact.
func summaryLibKey(lib dvm.LoadedLib) string {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], lib.Prog.Base)
	return cas.DigestBytes(b[:], lib.Prog.Code)
}

// sumFunc is one function's per-analyzer summary state.
type sumFunc struct {
	lib       string
	t         *summary.Transfer
	validated bool // mutation validation passed (validated mode)
	rejected  bool // demoted to tracing for this analyzer's lifetime
	applied   uint64
}

// sumLib groups a library's functions for the per-lib report.
type sumLib struct {
	name  string
	funcs []*sumFunc
}

// sumPending is one JNI crossing's summary decision, pushed at entry and
// popped at return. active means the tracer is suppressed and the return
// taint comes from the transfer.
type sumPending struct {
	fn     *sumFunc
	active bool
	wide   bool
	args   [summary.NumArgCells]taint.Tag
}

// enableSummaries switches the analyzer's summary mode (default off). Call
// after NewAnalyzer and any DisableSurface, before Run. cache may be nil.
func (a *Analyzer) enableSummaries(mode SummaryMode, cache SummaryCache) {
	a.sumMode = mode
	a.sumCache = cache
	a.wireCodeWrite()
}

// summariesLive reports that crossings should consult the summary machinery:
// summaries are on and this mode actually hooks JNI crossings with a tracer
// to suppress (only NDroid installs both the DVM hooks and the selective
// tracer; DroidScope traces but has no JNI-semantic hooks, so its crossings
// never reach summaryEnter anyway).
func (a *Analyzer) summariesLive() bool {
	return a.sumMode != SummaryOff && a.Mode == ModeNDroid && a.Tracer != nil
}

// wireCodeWrite installs the CPU code-write callback, dispatching to the
// surface observer and/or summary eviction depending on what is enabled.
// Both consumers ride one callback slot, so disabling the surface observer
// must not silently drop summary eviction (and vice versa).
func (a *Analyzer) wireCodeWrite() {
	surf := a.Surface
	sumOn := a.sumMode != SummaryOff
	cpu := a.Sys.CPU
	switch {
	case surf == nil && !sumOn:
		cpu.OnCodeWrite = nil
	case surf != nil && !sumOn:
		cpu.OnCodeWrite = func(addr uint32) { surf.CodeWrite(addr) }
	default:
		cpu.OnCodeWrite = func(addr uint32) {
			if surf != nil {
				surf.CodeWrite(addr)
			}
			// A write into a code page may have rewritten instructions a
			// synthesis read; drop everything and mark the run churned so
			// re-synthesis refuses to trust the mutated image.
			a.voidSummaries()
		}
	}
}

// voidSummaries drops every cached per-function summary state (sound or
// not): the correctness property is that no state derived from a previous
// binding or code image survives the event. Future synthesis in this
// analyzer is poisoned — per the surface observer's churn semantics, a
// binding set that changed mid-run is not trustworthy input. Counters only;
// never the flow log.
func (a *Analyzer) voidSummaries() {
	if a.sumMode == SummaryOff {
		return
	}
	a.sumChurned = true
	if !a.sumInit {
		return
	}
	a.SummariesVoided += len(a.sumByEntry)
	a.sumByEntry = nil
	a.sumLibs = nil
	a.sumInit = false
}

// summaryInit synthesizes (or loads) transfers for every loaded library.
// Runs lazily at the first crossing so install-time loads are all visible.
func (a *Analyzer) summaryInit() {
	a.sumInit = true
	a.sumByEntry = make(map[uint32]*sumFunc)
	vm := a.Sys.VM
	for _, lib := range vm.NativeLibs() {
		var m map[uint32]*summary.Transfer
		if !a.sumChurned && a.sumCache != nil {
			if p, ok := a.sumCache.LoadSummaries(summaryLibKey(lib)); ok {
				m = summary.Rehydrate(p)
			}
		}
		if m == nil {
			m = summary.SynthesizeLib(static.LibCFG(vm, lib), a.sumChurned)
			if !a.sumChurned && a.sumCache != nil {
				a.sumCache.StoreSummaries(summaryLibKey(lib), summary.Export(m))
			}
		}
		sl := &sumLib{name: lib.Name}
		entries := make([]uint32, 0, len(m))
		for e := range m {
			entries = append(entries, e)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
		for _, e := range entries {
			fs := &sumFunc{lib: lib.Name, t: m[e]}
			sl.funcs = append(sl.funcs, fs)
			a.sumByEntry[e] = fs
		}
		a.sumLibs = append(a.sumLibs, sl)
	}
}

// summaryEnter decides, at a JNI crossing's entry (after the source policy
// is queued), whether this crossing runs under an accepted summary. It
// pushes exactly one sumPending per crossing; summaryExit pops it. Called
// from both the generic and the bound JNI entry paths.
func (a *Analyzer) summaryEnter(ctx *dvm.CallCtx) {
	if !a.summariesLive() {
		return
	}
	if !a.sumInit {
		a.summaryInit()
	}
	var pend sumPending
	fs := a.sumByEntry[ctx.Method.NativeAddr&^1]
	if fs != nil && !fs.rejected && len(ctx.CPUArgs) <= summary.NumArgCells {
		sh := ctx.Method.Shorty[0]
		wide := sh == 'J' || sh == 'D'
		if fs.t.Acceptable(wide) {
			ok := true
			if a.sumMode == SummaryValidated && !fs.validated {
				if a.validateSummary(fs, ctx, wide) {
					fs.validated = true
				} else {
					fs.rejected = true
					a.SummaryRejections = append(a.SummaryRejections, summary.Rejection{
						Func: fs.t.Name, Entry: fs.t.Entry, Reason: "validation-mismatch",
					})
					ok = false
				}
			}
			if ok {
				pend.fn = fs
				pend.active = true
				pend.wide = wide
				for i := 0; i < summary.NumArgCells && i < len(ctx.ArgTaints); i++ {
					pend.args[i] = ctx.ArgTaints[i]
				}
				a.Tracer.suppress++
			}
		}
	}
	a.sumStack = append(a.sumStack, pend)
}

// summaryExit pops the crossing's decision and, when a summary was active,
// lifts the tracer suppression and replaces the bridge-captured return
// taint with the transfer's — exactly the taint tracing would have left in
// the r0/r1 shadows. Runs before onJNIReturn's own logic, so the object
// walk, the RetOverride, and the "JNIReturn" log line all see the same
// value they would under tracing.
func (a *Analyzer) summaryExit(ctx *dvm.CallCtx) {
	if !a.summariesLive() {
		return
	}
	n := len(a.sumStack)
	if n == 0 {
		return
	}
	pend := a.sumStack[n-1]
	a.sumStack = a.sumStack[:n-1]
	if !pend.active {
		return
	}
	a.Tracer.suppress--
	t := pend.fn.t.Rows[0].Apply(pend.args)
	if pend.wide {
		t |= pend.fn.t.Rows[1].Apply(pend.args)
	}
	ctx.RetTaint = t
	pend.fn.applied++
	a.SummaryApplied++
}

// validationPad is where validation runs park LR: inside the reserved
// call-bridge return range, far above the slots the live bridge uses
// (padDepth*16), so RunUntil stops there and nothing is ever fetched.
const validationPad = kernel.ReturnPadBase + 0x8000

// validateSummary executes the function under systematic single-cell input
// mutations and confirms the observed taint propagation matches the static
// transfer exactly. The tracer stays fully active during the runs — the
// propagation it performs on the planted probe taints IS the observation —
// so validation never trusts the thing it is checking. Any surprise (run
// fault, budget, sentinel leakage, dep mismatch, injected fault) reads as a
// mismatch. CPU state is saved and restored around the whole plan; eligible
// functions touch no memory, so registers and flags are the entire
// footprint.
func (a *Analyzer) validateSummary(fs *sumFunc, ctx *dvm.CallCtx, wide bool) (ok bool) {
	if f := fault.Hit(SiteSummaryValidate, fs.t.Entry); f != nil {
		return false
	}
	c := a.Sys.CPU
	savedR := c.R
	savedT := c.RegTaint
	savedN, savedZ, savedC, savedV, savedThumb := c.N, c.Z, c.C, c.V, c.Thumb
	defer func() {
		if r := recover(); r != nil {
			// A fault injected into the tracer (or any other panic) during a
			// validation run is contained here: the summary is simply not
			// trusted. The real crossing then runs fully traced and hits the
			// same site organically if it was going to.
			ok = false
		}
		c.R = savedR
		c.N, c.Z, c.C, c.V, c.Thumb = savedN, savedZ, savedC, savedV, savedThumb
		for i := range savedT {
			if savedT[i] != 0 {
				c.SetRegTaint(i, savedT[i])
			} else {
				c.RegTaint[i] = 0
			}
		}
	}()

	for _, mu := range summary.Mutations(ctx.CPUArgs) {
		if !a.validationRun(fs, ctx, mu, wide) {
			return false
		}
	}
	return true
}

// validationRun performs one mutated execution and checks the observed dep
// rows against the static transfer.
func (a *Analyzer) validationRun(fs *sumFunc, ctx *dvm.CallCtx, mu summary.Mutation, wide bool) bool {
	c := a.Sys.CPU
	for i := 0; i < summary.NumArgCells; i++ {
		v := uint32(0)
		if i < len(ctx.CPUArgs) {
			v = ctx.CPUArgs[i]
		}
		if mu.Index == i {
			v = mu.Value
		}
		c.R[i] = v
		c.SetRegTaint(i, summary.ProbeTag(i))
	}
	for r := 4; r <= 12; r++ {
		c.SetRegTaint(r, summary.SentinelTag)
	}
	c.SetRegTaint(arm.LR, summary.SentinelTag)
	c.R[arm.LR] = validationPad
	// No hook at entry: the pending SourcePolicy queued for the real
	// crossing must survive these rehearsal runs untouched.
	c.SetPCNoHook(ctx.Method.NativeAddr)
	if err := c.RunUntil(validationPad, 1<<20); err != nil || c.Halted {
		return false
	}
	if summary.ObservedDep(c.RegTaint[0]) != fs.t.Rows[0] {
		return false
	}
	if wide && summary.ObservedDep(c.RegTaint[1]) != fs.t.Rows[1] {
		return false
	}
	return true
}

// summaryReport builds the per-library table for RunResult / marketstudy.
func (a *Analyzer) summaryReport() []summary.LibReport {
	if !a.sumInit {
		return nil
	}
	var out []summary.LibReport
	for _, sl := range a.sumLibs {
		r := summary.LibReport{Lib: sl.name, Functions: len(sl.funcs)}
		for _, fs := range sl.funcs {
			if fs.t.Sound {
				r.Sound++
			}
			if fs.rejected {
				r.Rejected++
			}
			if fs.validated || fs.applied > 0 {
				r.Accepted++
			} else {
				r.Traced++
			}
			r.Applied += fs.applied
		}
		out = append(out, r)
	}
	return out
}
