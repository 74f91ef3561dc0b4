package static

import (
	"sort"
	"strings"

	"repro/internal/dex"
	"repro/internal/dvm"
)

// sinkCalls are the libc/syscall functions the System Lib Hook Engine
// treats as sinks (Table VI rows with sink semantics). A native function
// that can reach one of these can publish data off-device.
var sinkCalls = map[string]bool{
	"write": true, "send": true, "sendto": true,
	"fwrite": true, "fputs": true, "fputc": true,
	"fprintf": true, "vfprintf": true,
}

// javaReentryCalls are the JNI env functions through which native code calls
// back into Java. Their method IDs are runtime values, so the call graph
// conservatively fans out to every registered method.
var javaReentryCalls = map[string]bool{
	"CallStaticVoidMethod": true, "CallStaticObjectMethod": true,
	"CallStaticIntMethod": true, "CallVoidMethod": true,
	"CallObjectMethod": true, "CallIntMethod": true,
}

// touches-fact bit positions (the backward closure problem).
const (
	factSource = iota
	factSink
	factCrossing
	factUnresolved
	numTouchBits
)

// cgEdge is one call edge; args>0 means the call can pass data into the
// callee's frame (argument registers, receiver included).
type cgEdge struct {
	to   int
	args int
}

// callGraph is the unified Dalvik+native call graph: one node per registered
// Java method (interpreted, builtin, or native declaration) plus one node
// per native function discovered by the ARM CFG traversal.
type callGraph struct {
	nodes []*cgNode
	byM   map[*dex.Method]int
	byFn  map[uint32]int // native function entry -> node

	succs [][]cgEdge
	preds [][]cgEdge
}

type cgNode struct {
	m   *dex.Method // nil for native functions
	fn  *NativeFunc // nil for Java methods
	cfg *MethodCFG  // interpreted methods only

	isSource, isSink, isCrossing, unresolved bool
	heapRead, heapWrite                      bool
	sinkNames                                []string // reached sink labels at this node
}

// NumNodes/Succs/Preds adapt the call graph to the dataflow Graph interface
// (edge metadata is dropped; the solver problems that need arg counts walk
// the typed edges directly).
func (g *callGraph) NumNodes() int { return len(g.nodes) }
func (g *callGraph) Succs(n int) []int {
	out := make([]int, len(g.succs[n]))
	for i, e := range g.succs[n] {
		out[i] = e.to
	}
	return out
}
func (g *callGraph) Preds(n int) []int {
	out := make([]int, len(g.preds[n]))
	for i, e := range g.preds[n] {
		out[i] = e.to
	}
	return out
}

func (g *callGraph) addEdge(from, to, args int) {
	g.succs[from] = append(g.succs[from], cgEdge{to: to, args: args})
	g.preds[to] = append(g.preds[to], cgEdge{to: from, args: args})
}

// buildCallGraph constructs the unified graph from the VM's registered
// classes and the native CFGs of its loaded libraries.
func buildCallGraph(vm *dvm.VM, cfgs []*NativeCFG) *callGraph {
	g := &callGraph{byM: make(map[*dex.Method]int), byFn: make(map[uint32]int)}

	// Nodes: every method of every registered class, in sorted class order
	// for determinism.
	var classes []*dex.Class
	for _, name := range vm.Classes() {
		if c, ok := vm.Class(name); ok {
			classes = append(classes, c)
		}
	}
	for _, c := range classes {
		for _, m := range c.Methods {
			g.byM[m] = len(g.nodes)
			g.nodes = append(g.nodes, &cgNode{m: m})
		}
	}
	for _, cfg := range cfgs {
		var entries []uint32
		for e := range cfg.Funcs {
			entries = append(entries, e)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
		for _, e := range entries {
			g.byFn[e] = len(g.nodes)
			g.nodes = append(g.nodes, &cgNode{fn: cfg.Funcs[e]})
		}
	}
	g.succs = make([][]cgEdge, len(g.nodes))
	g.preds = make([][]cgEdge, len(g.nodes))

	// Subclass cone for conservative virtual dispatch. The visited set guards
	// against cyclic super chains (a malformed class may name itself).
	subtypes := make(map[string][]*dex.Class)
	for _, c := range classes {
		visited := make(map[string]bool)
		for anc := c; !visited[anc.Name]; {
			visited[anc.Name] = true
			subtypes[anc.Name] = append(subtypes[anc.Name], c)
			if anc.Super == "" {
				break
			}
			next, ok := vm.Class(anc.Super)
			if !ok {
				break
			}
			anc = next
		}
	}

	// Classify and wire Java nodes.
	for idx, n := range g.nodes {
		if n.m == nil {
			continue
		}
		m := n.m
		full := m.FullName()
		switch {
		case vm.IsSourceMethod(full):
			n.isSource = true
		case vm.IsSinkMethod(full):
			n.isSink = true
			n.sinkNames = []string{leakLabel(m)}
		}
		if m.IsNative() {
			n.isCrossing = true
			if fnIdx, ok := g.byFn[m.NativeAddr&^1]; ok {
				// The JNI bridge always passes env and the receiver/class.
				g.addEdge(idx, fnIdx, 1+len(m.Shorty)-1)
			} else if m.NativeAddr != 0 {
				n.unresolved = true
			}
			continue
		}
		if len(m.Insns) == 0 {
			continue // builtin: host code, no guest call sites
		}
		n.cfg = NewMethodCFG(m)
		n.heapRead = n.cfg.HeapReads()
		n.heapWrite = n.cfg.HeapWrites()
		for _, site := range n.cfg.CallSites() {
			insn := site.Insn
			targets := resolveCall(vm, subtypes, insn)
			if len(targets) == 0 {
				n.unresolved = true
				continue
			}
			for _, t := range targets {
				if tIdx, ok := g.byM[t]; ok {
					g.addEdge(idx, tIdx, len(insn.Args))
				}
			}
		}
	}

	// Wire native-function nodes.
	for idx, n := range g.nodes {
		if n.fn == nil {
			continue
		}
		fn := n.fn
		if fn.Unresolved || fn.BadDecode {
			n.unresolved = true
		}
		for _, local := range fn.LocalCalls {
			if tIdx, ok := g.byFn[local]; ok {
				g.addEdge(idx, tIdx, 4)
			}
		}
		for _, callee := range fn.Calls {
			switch {
			case sinkCalls[callee]:
				n.isSink = true
				n.sinkNames = append(n.sinkNames, callee)
			case javaReentryCalls[callee]:
				// Method IDs are runtime values: fan out to every method.
				for tIdx, t := range g.nodes {
					if t.m != nil {
						g.addEdge(idx, tIdx, 4)
					}
				}
			case callee == "svc":
				// A raw supervisor call bypasses the modeled libc entirely;
				// treat it like an unresolvable transfer.
				n.unresolved = true
			}
		}
	}
	return g
}

// resolveCall returns the possible targets of one invoke instruction:
// exact-class lookup for static/direct calls, the subclass cone for virtual
// dispatch. An empty result means the target class or method is unknown to
// the VM (the call site stays conservative).
func resolveCall(vm *dvm.VM, subtypes map[string][]*dex.Class, insn *dex.Insn) []*dex.Method {
	var out []*dex.Method
	add := func(c *dex.Class) {
		if m, ok := c.Method(insn.MemberName); ok {
			out = append(out, m)
		}
	}
	if insn.Op == dex.InvokeVirtual {
		for _, c := range subtypes[insn.ClassName] {
			add(c)
		}
		// The declared class itself may be the only implementor even if the
		// cone map missed it (unregistered supers).
		if len(out) == 0 {
			if c, ok := vm.Class(insn.ClassName); ok {
				add(c)
			}
		}
		return out
	}
	if c, ok := vm.Class(insn.ClassName); ok {
		add(c)
	}
	return out
}

// leakLabel renders the name a Java sink uses in leak reports and flow logs:
// class simple name + method ("Network.send").
func leakLabel(m *dex.Method) string {
	cls := strings.TrimSuffix(m.Class.Name, ";")
	if i := strings.LastIndexByte(cls, '/'); i >= 0 {
		cls = cls[i+1:]
	}
	return cls + "." + m.Name
}

// reachResult is the taint-reachability pass output consumed by Analyze.
type reachResult struct {
	g         *callGraph
	reachable BitSet // nodes reachable from the entry method
	touches   []BitSet
	mayTaint  BitSet // Java frames that can ever hold a tainted value
	taintFree bool   // no source reachable from entry: no taint can ever exist
}

// analyzeReach runs the entry sweep, the backward interesting-closure
// problem, and the frame-taint fixpoint.
func analyzeReach(g *callGraph, entry *dex.Method) *reachResult {
	r := &reachResult{g: g}

	entryIdx, haveEntry := g.byM[entry]
	if haveEntry {
		r.reachable = Reachable(g, []int{entryIdx})
	} else {
		r.reachable = NewBitSet(len(g.nodes))
	}

	// Backward may-closure: a node touches a source/sink/crossing if it is
	// one or any callee transitively is. This is the taint-free criterion's
	// first half and the cross-validation reach set.
	base := make([]BitSet, len(g.nodes))
	for i, n := range g.nodes {
		b := NewBitSet(numTouchBits)
		if n.isSource {
			b.Set(factSource)
		}
		if n.isSink {
			b.Set(factSink)
		}
		if n.isCrossing {
			b.Set(factCrossing)
		}
		if n.unresolved {
			b.Set(factUnresolved)
		}
		base[i] = b
	}
	r.touches = Solve(g, Problem{
		Dir:      Backward,
		Join:     May,
		Bits:     numTouchBits,
		Boundary: func(n int) BitSet { return base[n] },
		Transfer: func(n int, in BitSet) BitSet { return in },
	})

	r.taintFree = true
	for i := range g.nodes {
		if r.reachable.Get(i) && g.nodes[i].isSource {
			r.taintFree = false
			break
		}
	}

	r.mayTaint = NewBitSet(len(g.nodes))
	if !r.taintFree {
		r.solveFrameTaint()
	}
	return r
}

// solveFrameTaint computes which Java frames can ever hold a tainted value,
// the second half of the taint-free criterion. Mutual fixpoint with
// returnsTaint:
//
//	frameMayTaint(M) ⇐ a callee may return taint into M,
//	               or a caller whose frame may taint passes ≥1 argument,
//	               or M reads heap state and tainted heap state can exist.
//	returnsTaint(C)  ⇐ C is a source, C is a JNI crossing (naive return
//	               policy aside, NDroid may taint the return), or C is
//	               interpreted/builtin with a non-void return and a frame
//	               that may taint.
//
// Monotone over (mayTaint, returnsTaint, heapMayTaint), so a round-robin
// sweep to quiescence terminates.
func (r *reachResult) solveFrameTaint() {
	g := r.g
	returns := NewBitSet(len(g.nodes))
	heapMayTaint := false

	returnsTaint := func(i int) bool {
		n := g.nodes[i]
		if n.m == nil {
			return false // native funcs feed the crossing node above them
		}
		if n.isSource || n.isCrossing {
			return true
		}
		if n.m.Shorty == "" || n.m.Shorty[0] == 'V' {
			return false
		}
		return r.mayTaint.Get(i)
	}

	for changed := true; changed; {
		changed = false
		for i, n := range g.nodes {
			if n.m == nil {
				continue
			}
			if !r.mayTaint.Get(i) {
				taints := false
				for _, e := range g.succs[i] {
					if returns.Get(e.to) {
						taints = true
						break
					}
				}
				if !taints {
					for _, e := range g.preds[i] {
						if e.args > 0 && r.mayTaint.Get(e.to) {
							taints = true
							break
						}
					}
				}
				if !taints && n.heapRead && heapMayTaint {
					taints = true
				}
				if taints {
					r.mayTaint.Set(i)
					changed = true
				}
			}
			if !returns.Get(i) && returnsTaint(i) {
				returns.Set(i)
				changed = true
			}
			if !heapMayTaint && ((r.mayTaint.Get(i) && n.heapWrite) || (n.isCrossing && r.reachable.Get(i))) {
				// Tainted heap state can exist once a tainted frame stores to
				// it — or once any crossing runs, since native code can write
				// fields and arrays through the JNI env.
				heapMayTaint = true
				changed = true
			}
		}
	}
	_ = returns
}

// taintFreeMethod reports whether the interpreted method node is proven
// taint-free: its frame can never hold taint and its call closure contains
// no source, sink, JNI crossing, or unresolved transfer.
func (r *reachResult) taintFreeMethod(i int) bool {
	n := r.g.nodes[i]
	if n.m == nil || n.m.IsNative() || n.m.Builtin != nil || len(n.m.Insns) == 0 {
		return false
	}
	if r.taintFree {
		return true
	}
	t := r.touches[i]
	return !r.mayTaint.Get(i) &&
		!t.Get(factSource) && !t.Get(factSink) &&
		!t.Get(factCrossing) && !t.Get(factUnresolved)
}
