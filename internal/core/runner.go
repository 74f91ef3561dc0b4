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
// artifact store (NewCachedRunner): static pre-analysis results, per-library
// assembled images, and dex validation verdicts are then keyed by content
// digest and shared across Runners, service shards, and processes. Artifacts
// are a pure cost optimisation — a cache hit replays exactly what a recompute
// would produce, and a corrupt or injected-faulty entry is evicted, counted
// in Stats.CacheFaults, and recomputed.

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/arm"
	"repro/internal/cas"
	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/static"
)

// Artifact kinds the Runner stores. The schema strings are hashed into every
// key (along with cas.Version), so editing one cleanly invalidates the kind.
var (
	// KindStatic holds static.Portable payloads keyed by Fingerprint.Static.
	KindStatic = cas.Kind{Name: "static", Schema: "v2 static.Portable counts,taint_free_names,findings,reach"}
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

	StaticRuns   int // static.Analyze executions
	StaticReuses int // attempts served from the in-memory digest cache

	// JNICrossings counts live Java->native crossings observed across every
	// attempt this Runner executed. Warm service replays serve verdicts (and
	// their surface maps) without running the guest, so their shards report
	// zero here — the counter-assertion the warm-replay tests pin.
	JNICrossings uint64

	// Artifact-store traffic (all zero on an uncached Runner).
	StaticDiskHits int // static results rehydrated from the artifact store
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
	t.StaticReuses += s.StaticReuses
	t.JNICrossings += s.JNICrossings
	t.StaticDiskHits += s.StaticDiskHits
	t.DexValidations += s.DexValidations
	t.DexCheckHits += s.DexCheckHits
	t.AsmCacheHits += s.AsmCacheHits
	t.AsmAssembles += s.AsmAssembles
	t.CacheFaults += s.CacheFaults
	t.SummarySynths += s.SummarySynths
}

// Runner serves analysis attempts from a snapshot-restored System.
type Runner struct {
	sys  *System
	snap *Snapshot

	// bootClasses names the framework classes present at snapshot time, so
	// the app fingerprint covers exactly what an Install added.
	bootClasses map[string]bool

	// statics caches pre-analysis results by app fingerprint: a re-install of
	// identical content reuses the result instead of re-running the analysis.
	statics map[string]*static.Result

	// cache is the persistent artifact store (nil on an uncached Runner).
	cache *cas.Store

	// needReboot poisons the Runner after a failed restore: the System may be
	// half-rewound, so the next attempt boots fresh.
	needReboot bool

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
	return &Runner{statics: make(map[string]*static.Result), cache: store}
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

// Cache exposes the Runner's artifact store (nil when uncached).
func (r *Runner) Cache() *cas.Store { return r.cache }

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

// analyzeOnce runs one contained attempt: reset and install the app, serve
// the static result from the digest cache (in-memory, then the artifact
// store) when the installed content is unchanged, and run the entry point.
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

	err := r.reset()
	if err == nil {
		err = spec.Install(r.sys)
	}
	if err != nil {
		f := fault.AsFault(err, "core")
		return RunResult{Verdict: verdictForFault(f), Fault: f}
	}
	sys := r.sys

	a := NewAnalyzer(sys, mode)
	a.Budget = opts.Budget
	a.Log.Enabled = opts.FlowLog
	if opts.Fuse == FuseOff {
		sys.VM.FuseNative = false
	}
	applySurface(a, opts.Surface)

	var sr *static.Result
	if opts.Static != static.Off {
		key := r.fingerprintInstalled(spec).Static
		if cached, ok := r.statics[key]; ok {
			sr = cached
			r.Stats.StaticReuses++
		} else if sr = r.loadStatic(key); sr != nil {
			r.statics[key] = sr
			r.Stats.StaticDiskHits++
		} else {
			sr = static.Analyze(sys.VM, spec.EntryClass, spec.EntryMethod)
			r.statics[key] = sr
			r.Stats.StaticRuns++
			if r.cache != nil {
				// Best-effort store: a failed Put costs future reuse, nothing else.
				_ = r.cache.Put(KindStatic, key, sr.Portable())
			}
		}
	}

	res = a.Run(spec.EntryClass, spec.EntryMethod, nil, nil)
	r.Stats.JNICrossings += res.JNICrossings
	if sr != nil {
		res.Static = sr
		if opts.FlowLog {
			res.StaticViolations = sr.CrossValidate(res.LogLines)
		}
	}
	return res
}

// loadStatic rehydrates a static result from the artifact store; any miss —
// clean, corrupt, or injected — returns nil and the caller recomputes.
func (r *Runner) loadStatic(key string) *static.Result {
	if r.cache == nil {
		return nil
	}
	var p static.Portable
	ok, err := r.cache.Get(KindStatic, key, &p)
	if err != nil {
		r.Stats.CacheFaults++
	}
	if !ok {
		return nil
	}
	return p.Rehydrate()
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
// class, each LibPrint covers one native image, Static additionally binds
// the entry point (the inputs of static.Analyze), and App is the submission
// identity the service shards and dedups by. The submission's display name
// is excluded throughout — identical content under two names is one app.
type Fingerprint struct {
	App    string
	Static string
	Dex    string
	Libs   []LibPrint
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
	fp.Static = cas.DigestStrings(parts...)
	fp.App = fp.Static
	return fp
}

// Fingerprint rewinds the warm System, installs the app, and returns its
// content fingerprint plus load-time dex validation diagnostics (one rendered
// fault per structurally-broken class). Validation verdicts are cached in the
// artifact store by class content digest, so a digest-identical class —
// resubmitted, or shared between apps — validates once per store lifetime.
// No analysis runs; the service's fingerprint stage uses this to route, dedup,
// and short-circuit submissions before spending any execution budget.
func (r *Runner) Fingerprint(spec AppSpec) (fp Fingerprint, diags []string, err error) {
	// Install runs arbitrary app setup; contain its panics like analyzeOnce
	// does, so a hostile submission cannot take the fingerprint stage down.
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
