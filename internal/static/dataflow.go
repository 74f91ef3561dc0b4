// Package static is the whole-program static pre-analysis over guest code:
// CFG construction for Dalvik bytecode and for ARM/Thumb native regions, a
// generic worklist dataflow framework shared by both ISAs, a
// taint-reachability pass that proves methods and native pages taint-free,
// and a static JNI lint over crossing sites. It runs before the first guest
// instruction executes and doubles as a soundness oracle for the dynamic
// flow logs (Result.CrossValidate).
package static

// Graph is the shape both CFGs and the interprocedural call graph present to
// the dataflow solver: nodes are dense indices, edges are successor lists.
type Graph interface {
	NumNodes() int
	Succs(n int) []int
	Preds(n int) []int
}

// BitSet is a fixed-width fact vector.
type BitSet []uint64

// NewBitSet returns an empty set able to hold bits [0, n).
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Get reports bit i.
func (b BitSet) Get(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

// Set sets bit i, reporting whether the set changed.
func (b BitSet) Set(i int) bool {
	w, m := i/64, uint64(1)<<uint(i%64)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

// Clear clears bit i.
func (b BitSet) Clear(i int) { b[i/64] &^= 1 << uint(i%64) }

// Union ORs o into b, reporting whether b changed.
func (b BitSet) Union(o BitSet) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// Intersect ANDs o into b, reporting whether b changed.
func (b BitSet) Intersect(o BitSet) bool {
	changed := false
	for i := range b {
		n := b[i] & o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// Copy returns an independent copy.
func (b BitSet) Copy() BitSet {
	c := make(BitSet, len(b))
	copy(c, b)
	return c
}

// Count returns the number of set bits.
func (b BitSet) Count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Any reports whether any bit is set.
func (b BitSet) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Direction selects which way facts flow along edges.
type Direction int

// Dataflow directions.
const (
	Forward Direction = iota
	Backward
)

// Join selects the confluence operator at control-flow merges.
type Join int

// Confluence operators: May (union — a fact holds on some path) and Must
// (intersection — a fact holds on every path).
const (
	May Join = iota
	Must
)

// Problem is one dataflow problem instance over a Graph.
type Problem struct {
	Dir  Direction
	Join Join
	// Bits is the fact-vector width.
	Bits int
	// Boundary seeds the in-set of node n before confluence (typically the
	// entry node for Forward, exit nodes for Backward). Nil means no seeds.
	Boundary func(n int) BitSet
	// Transfer computes the out-set of node n from its in-set. It must not
	// retain or mutate in; copy-on-write via in.Copy() is the usual shape.
	Transfer func(n int, in BitSet) BitSet
}

// Solve runs the iterative worklist algorithm to a fixpoint and returns the
// out-set of every node (facts after the node for Forward problems, before
// it for Backward ones). Must problems start at top (all bits set) so the
// intersection over not-yet-visited predecessors does not spuriously kill
// facts; nodes with no in-edges start at the boundary alone.
func Solve(g Graph, p Problem) []BitSet {
	n := g.NumNodes()
	out := make([]BitSet, n)
	top := NewBitSet(p.Bits)
	if p.Join == Must {
		for i := range top {
			top[i] = ^uint64(0)
		}
	}
	for i := 0; i < n; i++ {
		out[i] = top.Copy()
	}

	in := func(i int) []int {
		if p.Dir == Forward {
			return g.Preds(i)
		}
		return g.Succs(i)
	}
	outEdges := func(i int) []int {
		if p.Dir == Forward {
			return g.Succs(i)
		}
		return g.Preds(i)
	}

	// FIFO worklist with a membership bitmap; every node is processed at
	// least once so boundary-only nodes still transfer.
	work := make([]int, 0, n)
	queued := make([]bool, n)
	for i := 0; i < n; i++ {
		work = append(work, i)
		queued[i] = true
	}
	for len(work) > 0 {
		node := work[0]
		work = work[1:]
		queued[node] = false

		inSet := NewBitSet(p.Bits)
		preds := in(node)
		if p.Join == Must && len(preds) > 0 {
			for i := range inSet {
				inSet[i] = ^uint64(0)
			}
			for _, pr := range preds {
				inSet.Intersect(out[pr])
			}
		} else {
			for _, pr := range preds {
				inSet.Union(out[pr])
			}
		}
		if p.Boundary != nil {
			if b := p.Boundary(node); b != nil {
				inSet.Union(b)
			}
		}
		newOut := p.Transfer(node, inSet)
		if equal(newOut, out[node]) {
			continue
		}
		out[node] = newOut
		for _, s := range outEdges(node) {
			if !queued[s] {
				work = append(work, s)
				queued[s] = true
			}
		}
	}
	return out
}

func equal(a, b BitSet) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reachable runs a plain forward reachability sweep from the given roots — a
// 1-bit May problem, shared by the Dalvik CFG checks, the ARM traversal
// audit, and the call-graph entry sweep.
func Reachable(g Graph, roots []int) BitSet {
	seed := NewBitSet(g.NumNodes())
	for _, r := range roots {
		seed.Set(r)
	}
	out := Solve(g, Problem{
		Dir:  Forward,
		Join: May,
		Bits: 1,
		Boundary: func(n int) BitSet {
			if seed.Get(n) {
				one := NewBitSet(1)
				one.Set(0)
				return one
			}
			return nil
		},
		Transfer: func(n int, in BitSet) BitSet { return in },
	})
	reach := NewBitSet(g.NumNodes())
	for i, o := range out {
		if o.Get(0) {
			reach.Set(i)
		}
	}
	return reach
}
