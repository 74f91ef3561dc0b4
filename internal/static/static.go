// Package static implements the whole-program pass over an installed app
// that has not run (core.Lint installs one and calls Analyze): unified
// control-flow graphs over Dalvik bytecode
// and ARM/Thumb native code, a generic worklist dataflow solver shared by
// both ISAs, a taint-reachability pass that finds the methods and native
// pages which can never transitively touch a source, sink, or JNI crossing,
// and a static JNI lint over crossing sites.
//
// The pass is not part of any analysis attempt and never steers the dynamic
// engines. Its outputs are diagnostics (the lint findings and the taint-free
// counts) and the reach sets that CrossValidate holds a flow log against.
package static

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dex"
	"repro/internal/dvm"
	"repro/internal/fault"
)

// Result is the outcome of one pre-analysis over a booted (but not yet run)
// system: counts for reporting, the lint findings, and the reach sets
// consumed by cross-validation.
type Result struct {
	Methods        int // interpreted Dalvik methods
	NativePages    int // pages of loaded app native code
	TaintFreePages int // pages proven taint-free
	TaintFree      bool

	// TaintFreeNames are the full names of the methods proven unable to
	// touch taint, sorted.
	TaintFreeNames []string

	Findings []*fault.Fault // static JNI lint diagnostics

	// Reach sets for dynamic cross-validation: labels the flow log can emit.
	Sinks         map[string]bool // reachable sink labels ("Network.send")
	Crossings     map[string]bool // reachable native-method simple names
	CrossingAddrs map[uint32]bool // reachable native-method entry addresses
	NativeCallees map[string]bool // extern callees reachable in native code

	// Unresolved means some reachable node had an indirect transfer the
	// analysis could not resolve; cross-validation of native events is
	// skipped (anything could run) but Java-side checks still hold.
	Unresolved bool
}

// Analyze runs CFG construction, the JNI lint, and the taint-reachability
// pass over the VM's registered classes and loaded libraries. entryClass and
// entryMethod name the app's entry point for the reachability sweep.
func Analyze(vm *dvm.VM, entryClass, entryMethod string) *Result {
	r := &Result{
		Sinks:         make(map[string]bool),
		Crossings:     make(map[string]bool),
		CrossingAddrs: make(map[uint32]bool),
		NativeCallees: make(map[string]bool),
	}

	var cfgs []*NativeCFG
	for _, lib := range vm.NativeLibs() {
		cfgs = append(cfgs, libCFG(vm, lib))
	}

	r.Findings = Lint(vm, cfgs)

	g := buildCallGraph(vm, cfgs)
	var entry *dex.Method
	if c, ok := vm.Class(entryClass); ok {
		if m, ok := c.Method(entryMethod); ok {
			entry = m
		}
	}
	reach := analyzeReach(g, entry)
	r.TaintFree = reach.taintFree

	for i, n := range g.nodes {
		if n.m != nil && !n.m.IsNative() && n.m.Builtin == nil && len(n.m.Insns) > 0 {
			r.Methods++
		}
		if !reach.reachable.Get(i) {
			continue
		}
		if n.m != nil {
			if n.isSink {
				r.Sinks[leakLabel(n.m)] = true
			}
			if n.m.IsNative() {
				r.Crossings[n.m.Name] = true
				r.CrossingAddrs[n.m.NativeAddr] = true
			}
		}
		if n.fn != nil {
			for _, callee := range n.fn.Calls {
				r.NativeCallees[callee] = true
			}
		}
		if n.unresolved {
			r.Unresolved = true
		}
	}

	for i, n := range g.nodes {
		if reach.taintFreeMethod(i) {
			r.TaintFreeNames = append(r.TaintFreeNames, n.m.FullName())
		}
	}
	sort.Strings(r.TaintFreeNames)

	for _, lib := range vm.NativeLibs() {
		end := lib.Prog.Base + lib.Prog.Size()
		for pn := lib.Prog.Base >> 12; pn <= (end-1)>>12; pn++ {
			r.NativePages++
		}
	}
	if r.TaintFree {
		r.TaintFreePages = r.NativePages
	}
	return r
}

// libCFG builds one library's NativeCFG, rooted at every bound native
// method whose implementation lives inside the library's program image.
func libCFG(vm *dvm.VM, lib dvm.LoadedLib) *NativeCFG {
	resolve := buildResolver(vm)
	entries := make(map[uint32]string)
	for _, name := range vm.Classes() {
		c, ok := vm.Class(name)
		if !ok {
			continue
		}
		for _, m := range c.Methods {
			if m.IsNative() && m.NativeAddr != 0 && progContains(lib, m.NativeAddr&^1) {
				entries[m.NativeAddr] = m.FullName()
			}
		}
	}
	return BuildNativeCFG(lib.Prog, entries, resolve)
}

// progContains reports whether addr lies inside the library image.
func progContains(lib dvm.LoadedLib, addr uint32) bool {
	return addr >= lib.Prog.Base && addr < lib.Prog.Base+lib.Prog.Size()
}

// buildResolver inverts the VM's symbol tables (libc, JNI env trampolines,
// libdvm internals) into an address → name lookup for the CFG traversal.
func buildResolver(vm *dvm.VM) func(uint32) (string, bool) {
	byAddr := make(map[uint32]string)
	if vm.Libc != nil {
		for name, addr := range vm.Libc.Syms() {
			byAddr[addr&^1] = name
		}
	}
	for name, addr := range vm.JNISyms() {
		byAddr[addr&^1] = name
	}
	return func(addr uint32) (string, bool) {
		if name, ok := byAddr[addr&^1]; ok {
			return name, true
		}
		return vm.InternalName(addr &^ 1)
	}
}

// TaintFreeMethods counts the methods proven unable to touch taint.
func (r *Result) TaintFreeMethods() int { return len(r.TaintFreeNames) }

// CrossValidate checks every flow-log event against the static reach sets
// and returns one message per violation: a dynamic event that static
// analysis claimed unreachable is a soundness bug in the pre-analysis.
func (r *Result) CrossValidate(lines []string) []string {
	var out []string
	violate := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	// RegisterNatives re-registration moves a method's entry address after the
	// pre-analysis ran: the address-keyed check (SourceHandler) and the native
	// callee reach sets (SinkHandler, TrustCallHandler) are void from that
	// point on — code outside the static entry set may legitimately run.
	// Name-keyed Java-side checks still hold: rebinding cannot change the
	// declared method set.
	rebound := false
	for _, line := range lines {
		if strings.HasPrefix(line, "RegisterNatives ") {
			rebound = true
			break
		}
	}
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "JavaSink["):
			name := bracketArg(line, "JavaSink[")
			if !r.Sinks[name] {
				violate("dynamic Java sink %q not in static sink reach set", name)
			}
		case strings.HasPrefix(line, "SinkHandler["):
			name := bracketArg(line, "SinkHandler[")
			if !rebound && !r.Unresolved && !r.NativeCallees[name] {
				violate("dynamic native sink %q not in static callee reach set", name)
			}
		case strings.HasPrefix(line, "TrustCallHandler["):
			name := bracketArg(line, "TrustCallHandler[")
			if !rebound && !r.Unresolved && !r.NativeCallees[name] {
				violate("dynamic trust call %q not in static callee reach set", name)
			}
		case strings.HasPrefix(line, "SourceHandler @0x"):
			// The JNI-entry source policy fires once per crossing; its
			// address must be a reachable native method entry.
			var addr uint32
			if _, err := fmt.Sscanf(line, "SourceHandler @0x%x", &addr); err == nil {
				if !rebound && !r.CrossingAddrs[addr] {
					violate("dynamic JNI entry @%#x not in static crossing reach set", addr)
				}
			}
		case strings.HasPrefix(line, "dvmCallJNIMethod: "):
			name := fieldArg(line, "name=")
			if name != "" && !r.Crossings[name] {
				violate("dynamic JNI call %q not in static crossing reach set", name)
			}
		case strings.HasPrefix(line, "JNIReturn "):
			name := strings.TrimPrefix(line, "JNIReturn ")
			if i := strings.IndexByte(name, ' '); i >= 0 {
				name = name[:i]
			}
			if name != "" && !r.Crossings[name] {
				violate("dynamic JNI return %q not in static crossing reach set", name)
			}
		}
	}
	return out
}

// bracketArg extracts NAME from "Prefix[NAME]...".
func bracketArg(line, prefix string) string {
	rest := strings.TrimPrefix(line, prefix)
	if i := strings.IndexByte(rest, ']'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// fieldArg extracts VALUE from "... key=VALUE ..." (space-terminated).
func fieldArg(line, key string) string {
	i := strings.Index(line, key)
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		return rest[:j]
	}
	return rest
}

// Summary renders the one-line report used by cmd/ndroid and flow logs.
func (r *Result) Summary() string {
	return fmt.Sprintf("static: %d/%d methods taint-free, %d/%d pages taint-free, %d lint findings, taint-free=%v",
		r.TaintFreeMethods(), r.Methods, r.TaintFreePages, r.NativePages, len(r.Findings), r.TaintFree)
}
