package static

import (
	"sort"

	"repro/internal/fault"
)

// Portable is the serializable form of a Result for the content-addressed
// artifact store: maps become sorted slices and lint faults fault.Portable,
// so a rehydrated Result cross-validates flow logs and renders summaries
// identically to the original.
type Portable struct {
	Methods        int  `json:"methods"`
	NativeFuncs    int  `json:"native_funcs"`
	NativePages    int  `json:"native_pages"`
	TaintFreePages int  `json:"taint_free_pages"`
	TaintFree      bool `json:"taint_free"`
	Unresolved     bool `json:"unresolved,omitempty"`

	TaintFreeNames []string `json:"taint_free_names,omitempty"`

	Findings []*fault.Portable `json:"findings,omitempty"`

	Sources       []string `json:"sources,omitempty"`
	Sinks         []string `json:"sinks,omitempty"`
	Crossings     []string `json:"crossings,omitempty"`
	CrossingAddrs []uint32 `json:"crossing_addrs,omitempty"`
	NativeCallees []string `json:"native_callees,omitempty"`
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Portable dehydrates the result.
func (r *Result) Portable() *Portable {
	p := &Portable{
		Methods: r.Methods, NativeFuncs: r.NativeFuncs, NativePages: r.NativePages,
		TaintFreePages: r.TaintFreePages, TaintFree: r.TaintFree,
		Unresolved:     r.Unresolved,
		TaintFreeNames: append([]string(nil), r.TaintFreeNames...),
		Sources:        sortedKeys(r.Sources),
		Sinks:          sortedKeys(r.Sinks),
		Crossings:      sortedKeys(r.Crossings),
		NativeCallees:  sortedKeys(r.NativeCallees),
	}
	for addr := range r.CrossingAddrs {
		p.CrossingAddrs = append(p.CrossingAddrs, addr)
	}
	sort.Slice(p.CrossingAddrs, func(i, j int) bool { return p.CrossingAddrs[i] < p.CrossingAddrs[j] })
	for _, f := range r.Findings {
		p.Findings = append(p.Findings, f.Portable())
	}
	return p
}

// Rehydrate rebuilds a Result from its portable form.
func (p *Portable) Rehydrate() *Result {
	r := &Result{
		Methods: p.Methods, NativeFuncs: p.NativeFuncs, NativePages: p.NativePages,
		TaintFreePages: p.TaintFreePages, TaintFree: p.TaintFree,
		Unresolved:     p.Unresolved,
		TaintFreeNames: append([]string(nil), p.TaintFreeNames...),
		Sources:        make(map[string]bool, len(p.Sources)),
		Sinks:          make(map[string]bool, len(p.Sinks)),
		Crossings:      make(map[string]bool, len(p.Crossings)),
		CrossingAddrs:  make(map[uint32]bool, len(p.CrossingAddrs)),
		NativeCallees:  make(map[string]bool, len(p.NativeCallees)),
	}
	for _, s := range p.Sources {
		r.Sources[s] = true
	}
	for _, s := range p.Sinks {
		r.Sinks[s] = true
	}
	for _, s := range p.Crossings {
		r.Crossings[s] = true
	}
	for _, a := range p.CrossingAddrs {
		r.CrossingAddrs[a] = true
	}
	for _, s := range p.NativeCallees {
		r.NativeCallees[s] = true
	}
	for _, f := range p.Findings {
		r.Findings = append(r.Findings, f.Fault())
	}
	return r
}
