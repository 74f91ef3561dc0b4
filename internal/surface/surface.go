// Package surface builds the per-app JNI surface map: every native boundary
// the run discovers, every registration and re-registration event (static
// stub binds vs dynamic RegisterNatives, including mid-run implementation
// swaps), reflection-driven dispatches from native code back into Java,
// per-boundary call counts, and the GetStringUTFChars handles a boundary
// returned without releasing.
//
// The observer is designed for hostile apps. A RASP-style anti-analysis loop
// can cross one JNI boundary millions of times; recording every crossing
// would turn the surface map into an amplification vector. Two mechanisms
// bound the cost:
//
//   - Dedup + count-bucketed throttling: raw per-boundary counters always
//     increment (O(1) memory per unique boundary), but a crossing only
//     becomes a recorded *event* when its per-boundary count reaches a power
//     of two — the same 1/2/4/8/... bucketing the production JNI tracers in
//     the exemplar tooling use against RASP-protected apps.
//   - A hard per-app event budget: once the run has recorded Budget events,
//     further events are dropped (counted, never recorded) and the map is
//     flagged Truncated. A flood therefore costs O(unique boundaries), not
//     O(calls), and the loss is typed and verdict-visible instead of silent.
//
// Everything the observer does is deterministic in the guest's instruction
// stream and writes nothing to the flow log, so surface maps are
// byte-identical with or without a flow log, across snapshot restores,
// parallel workers, and warm service-cache replays — properties the parity suites
// enforce.
package surface

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
)

// SiteOverflow is the injection site modelling budget exhaustion. It carries
// absorbed semantics: an injected hit truncates the surface map from that
// event on (exactly as a real budget exhaustion would), while flow logs and
// verdicts stay byte-identical to an uninjected run.
const SiteOverflow = "surface.overflow"

func init() { fault.RegisterSite(SiteOverflow, "surface") }

// DefaultEventBudget is the hard per-app recorded-event budget. It is sized
// so every well-behaved corpus app fits with headroom while a boundary flood
// (which generates ~log2(calls) bucketed events per boundary plus its
// registrations) overruns it and gets flagged.
const DefaultEventBudget = 32

// Observer accumulates the surface map for one analysis attempt. It is not
// safe for concurrent use; the analyzer drives it from the single-threaded
// emulation loop.
type Observer struct {
	// Budget is the hard cap on recorded events (default DefaultEventBudget).
	Budget int
	// Throttle enables power-of-two count bucketing. Disabling it is the
	// unthrottled baseline: every crossing attempts an event, which a flood
	// app demonstrably blows past the budget with.
	Throttle bool

	boundaries map[string]*boundary
	pages      map[uint32]uint64
	codeWrites uint64
	events     int
	dropped    uint64
	truncated  bool
}

type boundary struct {
	regs       []Registration
	regEvents  uint64
	calls      uint64
	callEvents int
	reflects   uint64
	dynamic    bool
	unreleased []Unreleased
}

// NewObserver returns an observer with the default budget and throttling on.
func NewObserver() *Observer {
	return &Observer{
		Budget:     DefaultEventBudget,
		Throttle:   true,
		boundaries: map[string]*boundary{},
		pages:      map[uint32]uint64{},
	}
}

func (o *Observer) boundaryFor(name string) *boundary {
	b := o.boundaries[name]
	if b == nil {
		b = &boundary{}
		o.boundaries[name] = b
	}
	return b
}

// event is the budget gate every recorded observation passes through. It
// probes the surface.overflow injection site (an injected hit forces
// truncation, absorbed), then charges the budget. Suppressed events are
// counted in dropped so truncation loss is quantified, never silent.
func (o *Observer) event() bool {
	if f := fault.Hit(SiteOverflow, 0); f != nil {
		o.truncated = true
	}
	if o.truncated || o.events >= o.Budget {
		o.truncated = true
		o.dropped++
		return false
	}
	o.events++
	return true
}

func bucketed(n uint64) bool { return n&(n-1) == 0 }

// Register records a binding of name to code: dynamic=true for guest
// RegisterNatives (including mid-run swaps), false for install-time static
// stub binds seeded at analyzer attach. The boundary is always discovered
// and its raw counters advance even past the budget; only the registration
// history entry is budget-bound.
func (o *Observer) Register(name string, dynamic bool, old, new uint32) {
	b := o.boundaryFor(name)
	b.regEvents++
	if dynamic {
		b.dynamic = true
	}
	if o.event() {
		b.regs = append(b.regs, Registration{Dynamic: dynamic, Old: old, New: new})
	}
}

// Call records one Dalvik->native crossing of boundary name. The raw count
// always increments; an event is attempted on every crossing unthrottled, or
// at power-of-two counts when throttled.
func (o *Observer) Call(name string) {
	b := o.boundaryFor(name)
	b.calls++
	if !o.Throttle || bucketed(b.calls) {
		if o.event() {
			b.callEvents++
		}
	}
}

// Reflect records a native->Java reflection-style dispatch (CallStaticXMethod
// and friends) targeting Java method name, with the same bucketing as Call.
func (o *Observer) Reflect(name string) {
	b := o.boundaryFor(name)
	b.reflects++
	if !o.Throttle || bucketed(b.reflects) {
		if o.event() {
			b.callEvents++
		}
	}
}

// Unreleased records that boundary name returned with a GetStringUTFChars
// buffer still unreleased, obtained by the call at site. A new (boundary,
// site) pair is one recorded event; a repeat only bumps its count, so a Get
// loop cannot amplify. A pair whose event the budget refused is counted as
// dropped on each repeat, as a registration past the budget is.
func (o *Observer) Unreleased(name string, site uint32) {
	b := o.boundaryFor(name)
	for i := range b.unreleased {
		if b.unreleased[i].Site == site {
			b.unreleased[i].Count++
			return
		}
	}
	if o.event() {
		b.unreleased = append(b.unreleased, Unreleased{Site: site, Count: 1})
	}
}

// CodeWrite records a guest store into translated native code (the SMC
// notify): self-modifying natives that rewrite their own hooks show up here.
// Writes are deduplicated per page and bucketed like calls.
func (o *Observer) CodeWrite(addr uint32) {
	o.codeWrites++
	page := addr >> 12
	o.pages[page]++
	if !o.Throttle || bucketed(o.pages[page]) {
		o.event()
	}
}

// Truncated reports whether the event budget was exhausted (or exhaustion
// was injected at surface.overflow).
func (o *Observer) Truncated() bool { return o.truncated }

// Registration is one recorded binding event for a boundary.
type Registration struct {
	Dynamic bool   `json:"dynamic"`
	Old     uint32 `json:"old"`
	New     uint32 `json:"new"`
}

// Unreleased is one definite JNI contract finding: the boundary returned
// Count times with a GetStringUTFChars buffer from the call at Site never
// passed to ReleaseStringUTFChars.
type Unreleased struct {
	Site  uint32 `json:"site"`
	Count uint64 `json:"count"`
}

// Boundary is the per-native-method row of the surface map.
type Boundary struct {
	Name          string         `json:"name"`
	Registrations []Registration `json:"registrations,omitempty"`
	RegEvents     uint64         `json:"reg_events"`
	Calls         uint64         `json:"calls"`
	CallEvents    int            `json:"call_events"`
	ReflectCalls  uint64         `json:"reflect_calls,omitempty"`
	Dynamic       bool           `json:"dynamic,omitempty"`
	Unreleased    []Unreleased   `json:"unreleased,omitempty"`
}

// Map is the deterministic snapshot of one attempt's JNI surface: boundaries
// sorted by name, totals, and the truncation flag. It is the artifact stored
// under the service verdict record and compared byte-for-byte by the parity
// suites.
type Map struct {
	Boundaries       []Boundary `json:"boundaries"`
	UniqueBoundaries int        `json:"unique_boundaries"`
	Events           int        `json:"events"`
	Dropped          uint64     `json:"dropped"`
	Calls            uint64     `json:"calls"`
	CodeWrites       uint64     `json:"code_writes,omitempty"`
	CodePages        int        `json:"code_pages,omitempty"`
	Truncated        bool       `json:"truncated"`
}

// Map renders the observer state as a sorted, comparable snapshot.
func (o *Observer) Map() *Map {
	m := &Map{
		UniqueBoundaries: len(o.boundaries),
		Events:           o.events,
		Dropped:          o.dropped,
		CodeWrites:       o.codeWrites,
		CodePages:        len(o.pages),
		Truncated:        o.truncated,
	}
	names := make([]string, 0, len(o.boundaries))
	for n := range o.boundaries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := o.boundaries[n]
		m.Calls += b.calls
		m.Boundaries = append(m.Boundaries, Boundary{
			Name:          n,
			Registrations: b.regs,
			RegEvents:     b.regEvents,
			Calls:         b.calls,
			CallEvents:    b.callEvents,
			ReflectCalls:  b.reflects,
			Dynamic:       b.dynamic,
			Unreleased:    b.unreleased,
		})
	}
	return m
}

// Bytes is the canonical serialized form — the byte string the parity suites
// compare. Field order is fixed by the struct, boundary order by the sort in
// Map, so equal maps serialize identically.
func (m *Map) Bytes() []byte {
	if m == nil {
		return nil
	}
	b, err := json.Marshal(m)
	if err != nil {
		// Map contains only marshalable fields; this cannot fail.
		panic(err)
	}
	return b
}

// Equal compares two maps by canonical bytes.
func (m *Map) Equal(other *Map) bool {
	return string(m.Bytes()) == string(other.Bytes())
}

// String renders the map as the operator-facing table marketstudy prints.
func (m *Map) String() string {
	if m == nil {
		return "(no surface map)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %5s %9s %7s %4s %4s\n", "boundary", "regs", "calls", "reflect", "evts", "dyn")
	for _, b := range m.Boundaries {
		dyn := ""
		if b.Dynamic {
			dyn = "dyn"
		}
		fmt.Fprintf(&sb, "%-40s %5d %9d %7d %4d %4s\n",
			b.Name, b.RegEvents, b.Calls, b.ReflectCalls, b.CallEvents, dyn)
		for _, u := range b.Unreleased {
			fmt.Fprintf(&sb, "  unreleased GetStringUTFChars@%#x at return (count %d)\n", u.Site, u.Count)
		}
	}
	trunc := ""
	if m.Truncated {
		trunc = "  TRUNCATED"
	}
	smc := ""
	if m.CodeWrites > 0 {
		smc = fmt.Sprintf(", %d code writes on %d pages", m.CodeWrites, m.CodePages)
	}
	fmt.Fprintf(&sb, "%d boundaries, %d events recorded, %d dropped, %d calls%s%s\n",
		m.UniqueBoundaries, m.Events, m.Dropped, m.Calls, smc, trunc)
	return sb.String()
}
