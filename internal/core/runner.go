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
// A Runner may additionally be wired to the persistent content-addressed
// artifact store (NewCachedRunner): per-library assembled images and dex
// validation verdicts are then keyed by content digest and shared across
// Runners, service workers, and processes. Artifacts are a pure cost
// optimisation — a cache hit replays exactly what a recompute would produce,
// and a corrupt or injected-faulty entry is evicted, counted in
// Stats.CacheFaults, and recomputed.

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/arm"
	"repro/internal/cas"
	"repro/internal/dex"
	"repro/internal/fault"
)

// Artifact kinds the Runner stores. The schema strings are hashed into every
// key (along with cas.Version), so editing one cleanly invalidates the kind.
var (
	// KindAsm holds arm.Program payloads keyed by hash(source, base).
	KindAsm = cas.Kind{Name: "asmlib", Schema: "v1 arm.Program base,code,labels,writemask"}
	// KindDexCheck holds dexCheckRecord payloads keyed by dex.Class digests.
	KindDexCheck = cas.Kind{Name: "dexcheck", Schema: "v1 validate fault.Portable"}
)

// dexCheckRecord caches one class's load-time validation verdict.
type dexCheckRecord struct {
	Fault *fault.Portable `json:"fault,omitempty"` // nil: class validated clean
}

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

	// Artifact-store traffic (all zero on an uncached Runner).
	DexValidations int // per-class Validate executions during Fingerprint
	DexCheckHits   int // validation verdicts served from the artifact store
	AsmCacheHits   int // assembled images served from the artifact store
	AsmAssembles   int // real assembler runs
	CacheFaults    int // corrupt or injected cache loads absorbed (recomputed)

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

	// cache is the persistent artifact store (nil on an uncached Runner).
	cache *cas.Store

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
func NewRunner() (*Runner, error) { return NewCachedRunner(nil) }

// NewCachedRunner is NewRunner wired to a persistent artifact store; a nil
// store yields a plain uncached Runner.
func NewCachedRunner(store *cas.Store) (*Runner, error) {
	r := newRunner(store)
	if err := r.boot(); err != nil {
		return nil, err
	}
	return r, nil
}

// newRunner returns an unbooted Runner: its first reset boots the System.
func newRunner(store *cas.Store) *Runner {
	return &Runner{cache: store}
}

func (r *Runner) boot() error {
	sys, err := NewSystem()
	if err != nil {
		return err
	}
	r.sys = sys
	if r.cache != nil {
		sys.VM.SetAsmCache(&runnerAsmCache{r})
	}
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
			err = spec.Install(r.sys)
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
	if opts.Fuse == FuseOff {
		sys.VM.FuseNative = false
	}
	applySurface(a, opts.Surface)

	res = a.Run(spec.EntryClass, spec.EntryMethod, nil, nil)
	r.Stats.JNICrossings += res.JNICrossings
	return res
}

// LibPrint fingerprints one loaded native-library image: the content digest
// covers the load base and the assembled bytes, deliberately not the library
// or app name — two apps shipping the same code share the print, which is
// what makes library-level artifacts reusable across apps.
type LibPrint struct {
	Name   string // reporting only; not part of Digest
	Base   uint32
	Digest string
}

// Fingerprint identifies what an Install added to the warm System, split by
// artifact scope: Dex covers the structural content of every non-framework
// class, each LibPrint covers one native image, and App, the submission
// identity the service dedups by, binds both to the entry point. The
// submission's display name is excluded throughout — identical content
// under two names is one app.
type Fingerprint struct {
	App  string
	Dex  string
	Libs []LibPrint
}

// fingerprintInstalled digests the currently-installed app (Install must
// already have run on the live System).
func (r *Runner) fingerprintInstalled(spec AppSpec) Fingerprint {
	vm := r.sys.VM
	dh := fnv.New64a()
	for _, name := range vm.Classes() {
		if r.bootClasses[name] {
			continue
		}
		if c, ok := vm.Class(name); ok {
			c.WriteDigest(dh)
		}
	}
	var fp Fingerprint
	fp.Dex = hex64(dh.Sum64())
	for _, lib := range vm.NativeLibs() {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], lib.Prog.Base)
		fp.Libs = append(fp.Libs, LibPrint{
			Name: lib.Name, Base: lib.Prog.Base,
			Digest: cas.DigestBytes(b[:], lib.Prog.Code),
		})
	}
	parts := []string{spec.EntryClass, spec.EntryMethod, fp.Dex}
	for _, l := range fp.Libs {
		parts = append(parts, l.Digest)
	}
	fp.App = cas.DigestStrings(parts...)
	return fp
}

// installKey names a spec for the Fingerprint hand-off.
func installKey(spec AppSpec) string {
	return spec.Name + "\x00" + spec.EntryClass + "\x00" + spec.EntryMethod
}

// Fingerprint rewinds the warm System, installs the app, and returns its
// content fingerprint plus load-time dex validation diagnostics (one rendered
// fault per structurally-broken class). Validation verdicts are cached in the
// artifact store by class content digest, so a digest-identical class —
// resubmitted, or shared between apps — validates once per store lifetime.
// No analysis runs; a service worker uses this to dedup and short-circuit a
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
		err = spec.Install(r.sys)
	}
	if err != nil {
		return Fingerprint{}, nil, fault.AsFault(err, "core")
	}
	fp = r.fingerprintInstalled(spec)

	vm := r.sys.VM
	for _, name := range vm.Classes() {
		if r.bootClasses[name] {
			continue
		}
		c, ok := vm.Class(name)
		if !ok {
			continue
		}
		if f := r.validateClass(c); f != nil {
			diags = append(diags, f.Error())
		}
	}
	r.installed = installKey(spec)
	return fp, diags, nil
}

// validateClass runs (or replays) one class's structural validation.
func (r *Runner) validateClass(c *dex.Class) *fault.Fault {
	if r.cache == nil {
		r.Stats.DexValidations++
		return fault.AsFault(c.Validate(), "dex")
	}
	key := c.Digest()
	var rec dexCheckRecord
	ok, err := r.cache.Get(KindDexCheck, key, &rec)
	if err != nil {
		r.Stats.CacheFaults++
	}
	if ok {
		r.Stats.DexCheckHits++
		return rec.Fault.Fault()
	}
	r.Stats.DexValidations++
	f := fault.AsFault(c.Validate(), "dex")
	_ = r.cache.Put(KindDexCheck, key, &dexCheckRecord{Fault: f.Portable()})
	return f
}

// runnerAsmCache adapts the artifact store to the VM's assembly-cache hook.
// Each Load decodes a private Program copy, so nothing is aliased between
// VMs; a corrupt or injected-faulty entry counts as an absorbed cache fault
// and reads as a miss (the VM assembles and re-stores).
type runnerAsmCache struct{ r *Runner }

func asmCacheKey(source string, base uint32) string {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], base)
	return cas.DigestBytes([]byte(source), b[:])
}

func (a *runnerAsmCache) Load(source string, base uint32) (*arm.Program, bool) {
	var p arm.Program
	ok, err := a.r.cache.Get(KindAsm, asmCacheKey(source, base), &p)
	if err != nil {
		a.r.Stats.CacheFaults++
	}
	if !ok {
		return nil, false
	}
	a.r.Stats.AsmCacheHits++
	return &p, true
}

func (a *runnerAsmCache) Store(source string, base uint32, prog *arm.Program) {
	// Store always follows a real assembler run on the cached path.
	a.r.Stats.AsmAssembles++
	_ = a.r.cache.Put(KindAsm, asmCacheKey(source, base), prog)
}

func hex64(sum uint64) string {
	const hexDigits = "0123456789abcdef"
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[15-i] = hexDigits[sum&0xf]
		sum >>= 4
	}
	return string(out[:])
}
