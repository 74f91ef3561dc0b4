// Package fault defines the typed guest-fault taxonomy shared by every
// emulation layer and a deterministic fault-injection registry.
//
// NDroid's defining operational requirement is surviving hostile inputs: the
// paper's market study runs the analyzer over hundreds of thousands of apps
// whose native code is untrusted by construction. Any guest misbehavior —
// wild pointers, undefined encodings, runaway loops, JNI misuse, malformed
// bytecode — must surface as a *Fault value travelling the ordinary error
// path (or, from contexts that cannot return, a panic carrying a *Fault that
// the top-level run containment converts back), never as an analyzer crash.
//
// The injection registry makes every fault path exercisable without crafting
// a guest program that actually triggers it: each layer registers named
// injection sites at package init, a test arms one site with a fault kind,
// and the next execution that passes the site raises the injected fault
// exactly once. Arming is process-global, mutex-protected, and fires
// deterministically (on the n-th hit of the armed site), so injected runs
// are exactly reproducible.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a guest fault.
type Kind uint8

// The taxonomy. Every kind is a guest (or injected) condition except
// InternalError, which is the containment wrapper for host-side invariant
// violations that escaped as panics.
const (
	// UnmappedAccess: a data access or instruction fetch outside the mapped
	// guest address space (wild pointers, NULL derefs, wild branches).
	UnmappedAccess Kind = iota + 1
	// UndefInsn: an instruction encoding the CPU does not define.
	UndefInsn
	// StackOverflow: a Dalvik frame push past the thread's stack base.
	StackOverflow
	// BudgetExceeded: a watchdog instruction budget ran out (deterministic
	// step counts, never wall-clock). Maps to the Timeout verdict.
	BudgetExceeded
	// JNIMisuse: native code calling the JNI interface against its contract
	// (wrong object kind, unbound native method, bad method ID).
	JNIMisuse
	// MalformedDex: structurally broken bytecode reached execution or
	// resolution (pc out of range, unknown ops, dangling references).
	MalformedDex
	// InternalError: a host-side invariant violation contained by the
	// top-level recover; also the kind for unclassified panics.
	InternalError
)

var kindNames = map[Kind]string{
	UnmappedAccess: "unmapped-access",
	UndefInsn:      "undef-insn",
	StackOverflow:  "stack-overflow",
	BudgetExceeded: "budget-exceeded",
	JNIMisuse:      "jni-misuse",
	MalformedDex:   "malformed-dex",
	InternalError:  "internal-error",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromName resolves a taxonomy name ("unmapped-access", ...) back to its
// Kind; used by env-var-armed injection runs.
func KindFromName(name string) (Kind, bool) {
	for k, s := range kindNames {
		if s == name {
			return k, true
		}
	}
	return 0, false
}

// Fault is one typed guest fault with its source context. It implements
// error; layers raise it through their normal error returns where possible
// and panic with it from contexts that cannot return (hooks, allocation).
type Fault struct {
	Kind  Kind
	Layer string // originating layer: "arm", "dvm", "dex", "taint", "core"

	PC     uint32 // guest PC for native-layer faults (0 when not applicable)
	Addr   uint32 // faulting data address, when distinct from PC
	Method string // Dalvik method context, when known
	Site   string // injection site name; empty for organic faults

	Detail string
	Cause  error // wrapped underlying error, when any
}

// Error renders the fault on one line.
func (f *Fault) Error() string {
	s := fmt.Sprintf("%s: %s fault", f.Layer, f.Kind)
	if f.Method != "" {
		s += " in " + f.Method
	}
	if f.PC != 0 {
		s += fmt.Sprintf(" at 0x%08x", f.PC)
	}
	if f.Site != "" {
		s += " (injected at " + f.Site + ")"
	}
	if f.Detail != "" {
		s += ": " + f.Detail
	}
	if f.Cause != nil {
		s += ": " + f.Cause.Error()
	}
	return s
}

// Unwrap exposes the wrapped cause to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Cause }

// Of extracts the *Fault from an error chain.
func Of(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// AsFault returns the fault in err's chain, or wraps err as an InternalError
// attributed to layer. A nil err returns nil.
func AsFault(err error, layer string) *Fault {
	if err == nil {
		return nil
	}
	if f, ok := Of(err); ok {
		return f
	}
	return &Fault{Kind: InternalError, Layer: layer, Detail: err.Error(), Cause: err}
}

// FromPanic converts a recovered panic value into a fault: a *Fault (bare or
// inside an error chain) passes through typed; anything else becomes an
// InternalError attributed to layer.
func FromPanic(layer string, r interface{}) *Fault {
	switch v := r.(type) {
	case *Fault:
		return v
	case error:
		if f, ok := Of(v); ok {
			return f
		}
		return &Fault{Kind: InternalError, Layer: layer, Detail: "panic: " + v.Error(), Cause: v}
	default:
		return &Fault{Kind: InternalError, Layer: layer, Detail: fmt.Sprintf("panic: %v", r)}
	}
}

// --- injection registry ----------------------------------------------------

var (
	// armed is the fast-path flag: every Hit call starts with one atomic
	// load, so unarmed production runs pay a single predictable-branch
	// check per site passage.
	armed atomic.Bool

	mu        sync.Mutex
	sites     = map[string]string{} // site name -> owning layer
	armedSite string
	armedKind Kind
	countdown int            // hits remaining before the armed site fires
	fireLog   map[string]int // cumulative fires per site
)

// RegisterSite declares a named injection site owned by layer. Layers call it
// from package init; re-registration is idempotent.
func RegisterSite(name, layer string) {
	mu.Lock()
	defer mu.Unlock()
	sites[name] = layer
}

// Sites returns every registered site name, sorted.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(sites))
	for n := range sites {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SiteLayer reports the owning layer of a registered site.
func SiteLayer(name string) (string, bool) {
	mu.Lock()
	defer mu.Unlock()
	l, ok := sites[name]
	return l, ok
}

// Arm arms site to raise a fault of kind k on its next hit, then disarm
// itself. Only one site is armed at a time; arming replaces any previous
// arming. The site must be registered.
func Arm(site string, k Kind) error {
	return ArmNth(site, k, 1)
}

// ArmNth arms site to fire on its n-th hit (n >= 1), then disarm itself.
func ArmNth(site string, k Kind, n int) error {
	if n < 1 {
		return fmt.Errorf("fault: ArmNth(%q, %d): n must be >= 1", site, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; !ok {
		return fmt.Errorf("fault: unknown injection site %q", site)
	}
	armedSite, armedKind, countdown = site, k, n
	armed.Store(true)
	return nil
}

// ArmRandom deterministically picks one registered site from seed, arms it
// with kind k, and returns the chosen site name. The same seed over the same
// registered-site set always picks the same site.
func ArmRandom(seed int64, k Kind) (string, error) {
	names := Sites()
	if len(names) == 0 {
		return "", fmt.Errorf("fault: no injection sites registered")
	}
	// splitmix64 step: cheap, deterministic, and good enough to spread seeds.
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	site := names[z%uint64(len(names))]
	return site, Arm(site, k)
}

// DisarmAll clears any arming (fire counters survive; Reset clears both).
func DisarmAll() {
	mu.Lock()
	defer mu.Unlock()
	armedSite, countdown = "", 0
	armed.Store(false)
}

// Reset clears arming and the per-site fire counters (between tests).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armedSite, countdown = "", 0
	fireLog = nil
	armed.Store(false)
}

// Armed reports whether any site is currently armed: one inlined atomic
// load, the pre-check for hot loops that skip their probes while nothing is
// armed and for code that binds a probe in only when one could fire.
func Armed() bool { return armed.Load() }

// Fired reports how many times site has fired since the last Reset.
func Fired(site string) int {
	mu.Lock()
	defer mu.Unlock()
	return fireLog[site]
}

// Hit is the per-site probe: it returns a fault when this site is armed and
// its countdown reaches zero (disarming in the same step), nil otherwise.
// pc carries guest-PC context into the injected fault when the caller has it.
// The unarmed check inlines into the caller; the locked countdown is hit's.
func Hit(site string, pc uint32) *Fault {
	if !armed.Load() {
		return nil
	}
	return hit(site, pc)
}

func hit(site string, pc uint32) *Fault {
	mu.Lock()
	defer mu.Unlock()
	if site != armedSite {
		return nil
	}
	countdown--
	if countdown > 0 {
		return nil
	}
	armedSite, countdown = "", 0
	armed.Store(false)
	if fireLog == nil {
		fireLog = map[string]int{}
	}
	fireLog[site]++
	return &Fault{
		Kind:   armedKind,
		Layer:  sites[site],
		PC:     pc,
		Site:   site,
		Detail: "injected fault",
	}
}
