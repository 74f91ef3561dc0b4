package core

// Runner is the fork server: it boots one warm System, captures a
// core.Snapshot of the post-framework-init state, and then serves every
// analysis attempt from a copy-on-write clone — Restore rewinds only the
// pages and scalars the previous attempt dirtied, so per-app isolation costs
// O(dirty pages) instead of O(world).
//
// Every attempt of the degradation ladder runs on a Runner. An unbooted
// Runner (what AnalyzeApp uses per attempt when no Runner is supplied) boots
// a fresh System on first use and is never restored, which is the reference
// the snapshot-parity suite holds restored attempts byte-identical to. A
// restore that fails — organically or via the core.snapshot.restore injection
// site — poisons the Runner so the ladder's InternalError retry really does
// get a freshly booted System.
//
// A Runner keeps no artifact store. Dex validation and native-library
// assembly run in memory on every install; the VM's per-VM assembly memo
// serves repeat installs of the same library, and the service's verdict
// records are the only persistent artifact.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/cas"
	"repro/internal/fault"
)

// RunnerStats counts the work a Runner has done.
type RunnerStats struct {
	Boots  int // full System boots (initial + post-corruption reboots)
	Resets int // snapshot restores served

	GuestPagesReset int // guest pages copied back across all resets
	TaintPagesReset int // shadow-taint pages reset across all resets

	// StaticRuns is always 0: there is no static pass. It is kept only
	// until a benchmark change drops ndbench's static.runs_per_app
	// per-layer metric, which reads it.
	StaticRuns int

	// JNICrossings counts live Java->native crossings observed across every
	// attempt this Runner executed. Warm service replays serve verdicts (and
	// their surface maps) without running the guest, so their workers report
	// zero here — the counter-assertion the warm-replay tests pin.
	JNICrossings uint64

	DexValidations int // per-class Validate executions during Fingerprint
	AsmAssembles   int // real assembler runs during installs
	CacheFaults    int // corrupt or injected verdict loads absorbed (recomputed)

	// DexCheckHits and AsmCacheHits are always 0: the artifact store keeps
	// verdicts only, so no validation result or assembled image is replayed.
	// They are kept only until a benchmark change drops ndbench's
	// dex.check_hits_per_app and asm.cache_hits_per_app per-layer metrics,
	// which read them.
	DexCheckHits int
	AsmCacheHits int

	// SummarySynths is always 0: native taint summaries were deleted. It is
	// kept only until a benchmark change drops ndbench's summary.* per-layer
	// metrics, which read it.
	SummarySynths int
}

// Add folds s into the receiver field by field, for totals across Runners.
func (t *RunnerStats) Add(s RunnerStats) {
	t.Boots += s.Boots
	t.Resets += s.Resets
	t.GuestPagesReset += s.GuestPagesReset
	t.TaintPagesReset += s.TaintPagesReset
	t.StaticRuns += s.StaticRuns
	t.JNICrossings += s.JNICrossings
	t.DexValidations += s.DexValidations
	t.DexCheckHits += s.DexCheckHits
	t.AsmCacheHits += s.AsmCacheHits
	t.AsmAssembles += s.AsmAssembles
	t.CacheFaults += s.CacheFaults
	t.SummarySynths += s.SummarySynths
}

// logBufMax bounds the flow-log buffer a Runner keeps between attempts.
const logBufMax = 1 << 16

// Runner serves analysis attempts from a snapshot-restored System.
type Runner struct {
	sys  *System
	snap *Snapshot

	// bootClasses names the framework classes present at snapshot time, so
	// the app fingerprint covers exactly what an Install added.
	bootClasses map[string]bool

	// needReboot poisons the Runner after a failed restore: the System may be
	// half-rewound, so the next attempt boots fresh.
	needReboot bool

	// installed is Fingerprint's hand-off: the installKey of the app it just
	// installed, consumed by the next analyzeOnce (which skips its own reset
	// and Install when the spec matches).
	installed string

	// logBuf is the flow-log line buffer every attempt appends to.
	logBuf []string

	Stats RunnerStats
}

// NewRunner boots the warm System and captures its snapshot.
func NewRunner() (*Runner, error) {
	r := &Runner{}
	if err := r.boot(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Runner) boot() error {
	sys, err := NewSystem()
	if err != nil {
		return err
	}
	r.sys = sys
	r.bootClasses = make(map[string]bool)
	for _, name := range sys.VM.Classes() {
		r.bootClasses[name] = true
	}
	r.snap = sys.Snapshot()
	r.needReboot = false
	r.Stats.Boots++
	return nil
}

// System exposes the Runner's current System (nil before the first boot).
func (r *Runner) System() *System { return r.sys }

// reset rewinds the System to the warm post-boot state, booting instead when
// the Runner is unbooted or a previous restore failed.
func (r *Runner) reset() error {
	if r.needReboot || r.sys == nil {
		return r.boot()
	}
	st, err := r.snap.Restore()
	if err != nil {
		r.needReboot = true
		return err
	}
	r.Stats.Resets++
	r.Stats.GuestPagesReset += st.GuestPages
	r.Stats.TaintPagesReset += st.TaintPages
	return nil
}

// analyzeOnce runs one contained attempt: reset and install the app (unless
// Fingerprint just installed it), then run the entry point.
// Panics escaping any stage (boot, class loading, native-lib assembly) are
// converted to faults here, so a hostile app can never take the study process
// down.
func (r *Runner) analyzeOnce(spec AppSpec, mode Mode, opts AnalyzeOptions) (res RunResult) {
	defer func() {
		if rec := recover(); rec != nil {
			res.Fault = fault.FromPanic("core", rec)
			res.Verdict = verdictForFault(res.Fault)
		}
	}()

	var err error
	if r.installed != installKey(spec) {
		if err = r.reset(); err == nil {
			err = r.install(spec)
		}
	}
	r.installed = ""
	if err != nil {
		f := fault.AsFault(err, "core")
		return RunResult{Verdict: verdictForFault(f), Fault: f}
	}
	sys := r.sys

	a := NewAnalyzer(sys, mode)
	a.Budget = opts.Budget
	a.Log.Enabled = opts.FlowLog
	// Run copies the lines out, so one buffer serves every attempt; its
	// strings are dropped after the copy so it pins no attempt's log, and a
	// buffer grown past logBufMax lines is let go.
	a.Log.Lines = r.logBuf[:0]
	defer func() {
		r.logBuf = nil
		if cap(a.Log.Lines) <= logBufMax {
			clear(a.Log.Lines)
			r.logBuf = a.Log.Lines[:0]
		}
	}()
	res = a.Run(spec.EntryClass, spec.EntryMethod, nil, nil)
	r.Stats.JNICrossings += res.JNICrossings
	return res
}

// Fingerprint identifies what an Install added to the warm System. App, the
// submission identity the service dedups and keys verdicts by, digests the
// entry point, the structural content of every non-framework class and each
// loaded native image (load base and assembled bytes). The submission's
// display name is excluded — identical content under two names is one app.
type Fingerprint struct {
	App string
}

// fingerprintInstalled digests the currently-installed app (Install must
// already have run on the live System); appClasses names its classes, the
// ones registered after boot, sorted.
func (r *Runner) fingerprintInstalled(spec AppSpec, appClasses []string) Fingerprint {
	vm := r.sys.VM
	dh := fnv.New64a()
	for _, name := range appClasses {
		if c, ok := vm.Class(name); ok {
			c.WriteDigest(dh)
		}
	}
	parts := []string{spec.EntryClass, spec.EntryMethod, fmt.Sprintf("%016x", dh.Sum64())}
	for _, lib := range vm.NativeLibs() {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], lib.Prog.Base)
		parts = append(parts, cas.DigestBytes(b[:], lib.Prog.Code))
	}
	return Fingerprint{App: cas.DigestStrings(parts...)}
}

// installKey names a spec for the Fingerprint hand-off.
func installKey(spec AppSpec) string {
	return spec.Name + "\x00" + spec.EntryClass + "\x00" + spec.EntryMethod
}

// Fingerprint rewinds the warm System, installs the app, and returns its
// content fingerprint plus load-time dex validation diagnostics (one rendered
// fault per structurally-broken class; every class is validated on every
// call). No analysis runs; a service worker uses this to dedup and short-circuit a
// submission before spending any execution budget. The next attempt on this
// Runner, if it is for the same spec (name and entry point), runs on this
// installation; any other attempt, and every later ladder rung, resets.
func (r *Runner) Fingerprint(spec AppSpec) (fp Fingerprint, diags []string, err error) {
	r.installed = ""
	// Install runs arbitrary app setup; contain its panics like analyzeOnce
	// does, so a hostile submission cannot take a service worker down.
	defer func() {
		if rec := recover(); rec != nil {
			fp, diags = Fingerprint{}, nil
			err = fault.FromPanic("core", rec)
			r.needReboot = true
		}
	}()
	// A failed restore is the Runner's fault, not the app's: reboot and retry
	// once, the rule the ladder applies to InternalError, so the service
	// neither blames the app nor loses its content digest.
	if err = r.reset(); err != nil {
		err = r.reset()
	}
	if err == nil {
		err = r.install(spec)
	}
	if err != nil {
		return Fingerprint{}, nil, fault.AsFault(err, "core")
	}
	vm := r.sys.VM
	appClasses := vm.ClassesExcept(r.bootClasses)
	fp = r.fingerprintInstalled(spec, appClasses)
	for _, name := range appClasses {
		c, ok := vm.Class(name)
		if !ok {
			continue
		}
		r.Stats.DexValidations++
		if err := c.Validate(); err != nil {
			diags = append(diags, fault.AsFault(err, "dex").Error())
		}
	}
	r.installed = installKey(spec)
	return fp, diags, nil
}

// install runs spec's Install on the live System and folds the assembler
// runs it cost into Stats.AsmAssembles.
func (r *Runner) install(spec AppSpec) error {
	vm := r.sys.VM
	before := vm.AsmAssembles
	defer func() { r.Stats.AsmAssembles += int(vm.AsmAssembles - before) }()
	return spec.Install(r.sys)
}
