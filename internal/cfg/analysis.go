package cfg

// This file implements the relational analyses of the DiSE paper:
//
//   - IsCFGPath (Definition 3.2): reflexive-transitive reachability,
//   - postDom (Definition 3.8): post-dominance,
//   - controlD (Definition 3.9): control dependence,
//   - GetSCC / IsLoopEntryNode: strongly connected components for the
//     CheckLoops procedure of Fig. 6.
//
// All analyses are computed once on demand and cached on the Graph. Graphs
// are immutable after Build, so the caches never invalidate.

import "math/bits"

// Bitset is a dense set of node IDs, one bit per node of a Graph.
type Bitset []uint64

// NewBitset returns an empty set with room for IDs 0..n-1.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set adds i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear removes i.
func (b Bitset) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether i is a member.
func (b Bitset) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Or sets b |= c, reporting whether b changed.
func (b Bitset) Or(c Bitset) bool {
	changed := false
	for i := range b {
		old := b[i]
		b[i] |= c[i]
		changed = changed || b[i] != old
	}
	return changed
}

// And sets b &= c.
func (b Bitset) And(c Bitset) {
	for i := range b {
		b[i] &= c[i]
	}
}

// Clone returns a copy of b.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// Count returns the number of members.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest member >= i, or -1 when there is none. Members
// are visited in ascending order with
//
//	for i := b.Next(0); i >= 0; i = b.Next(i + 1)
func (b Bitset) Next(i int) int {
	w := i / 64
	if w >= len(b) {
		return -1
	}
	word := b[w] >> (uint(i) % 64)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w*64 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// Precompute forces all lazily-computed analyses (reachability,
// post-dominance, SCCs, stable keys). A precomputed graph is safe to share
// across goroutines: the analysis caches are only written here, and every
// later accessor is a pure read. Callers that put graphs in a cross-request
// cache must call this before publishing the graph.
func (g *Graph) Precompute() {
	g.ensureReach()
	g.ensurePostDom()
	g.ensureSCC()
	g.ensureStableKeys()
}

// ensureReach computes the reflexive-transitive reachability relation in
// one pass over the SCC condensation. Tarjan emits a component only after
// every component it reaches, so when a component comes up in g.sccList
// order, the rows of its successors' components are final. Every member of
// a component reaches exactly the same nodes, so the members share one row:
// the members themselves (Definition 3.2 admits the single-node sequence)
// plus the rows of the components their edges leave to.
func (g *Graph) ensureReach() {
	if g.reach != nil {
		return
	}
	g.ensureSCC()
	n := len(g.Nodes)
	reach := make([]Bitset, n)
	for c, comp := range g.sccList {
		row := NewBitset(n)
		for _, m := range comp {
			row.Set(m.ID)
			for _, e := range m.Succs {
				if g.sccID[e.To.ID] != c {
					row.Or(reach[e.To.ID])
				}
			}
		}
		for _, m := range comp {
			reach[m.ID] = row
		}
	}
	g.reach = reach
}

// IsCFGPath reports whether there is a CFG path from ni to nj
// (Definition 3.2). The relation is reflexive: a single node is a path.
func (g *Graph) IsCFGPath(ni, nj *Node) bool {
	g.ensureReach()
	return g.reach[ni.ID].Has(nj.ID)
}

// Reaches is IsCFGPath by node ID.
func (g *Graph) Reaches(from, to int) bool {
	g.ensureReach()
	return g.reach[from].Has(to)
}

// ReachSet returns the IDs of every node reachable from node `from`, itself
// included: the row of the IsCFGPath relation. The set is the graph's own,
// shared by every node of from's strongly connected component, and must
// not be modified.
func (g *Graph) ReachSet(from int) Bitset {
	g.ensureReach()
	return g.reach[from]
}

// ensurePostDom computes post-dominance sets with the classic iterative
// dataflow: pdom(end) = {end}; pdom(n) = {n} ∪ ⋂_{s ∈ succ(n)} pdom(s).
func (g *Graph) ensurePostDom() {
	if g.pdom != nil {
		return
	}
	n := len(g.Nodes)
	full := NewBitset(n)
	for i := 0; i < n; i++ {
		full.Set(i)
	}
	pdom := make([]Bitset, n)
	for i := range pdom {
		pdom[i] = full.Clone()
	}
	end := g.End.ID
	pdom[end] = NewBitset(n)
	pdom[end].Set(end)
	changed := true
	for changed {
		changed = false
		for i := len(g.Nodes) - 1; i >= 0; i-- {
			node := g.Nodes[i]
			if node.ID == end || len(node.Succs) == 0 {
				continue
			}
			meet := full.Clone()
			for _, e := range node.Succs {
				meet.And(pdom[e.To.ID])
			}
			meet.Set(node.ID)
			if !equalBits(meet, pdom[node.ID]) {
				pdom[node.ID] = meet
				changed = true
			}
		}
	}
	g.pdom = pdom
}

func equalBits(a, b Bitset) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PostDom reports whether nj post-dominates ni (Definition 3.8): every CFG
// path from ni to end passes through nj. The relation is reflexive.
func (g *Graph) PostDom(ni, nj *Node) bool {
	g.ensurePostDom()
	return g.pdom[ni.ID].Has(nj.ID)
}

// ControlD reports whether nj is control dependent on ni (Definition 3.9):
// ni has two distinct successors nk and nl such that nj post-dominates nk
// but does not post-dominate nl.
func (g *Graph) ControlD(ni, nj *Node) bool {
	if len(ni.Succs) < 2 {
		return false
	}
	g.ensurePostDom()
	postDominatesSome := false
	missesSome := false
	for _, e := range ni.Succs {
		if g.pdom[e.To.ID].Has(nj.ID) {
			postDominatesSome = true
		} else {
			missesSome = true
		}
	}
	return postDominatesSome && missesSome
}

// ControlDependents returns all nodes control dependent on ni, in ID order.
func (g *Graph) ControlDependents(ni *Node) []*Node {
	var out []*Node
	for _, nj := range g.Nodes {
		if g.ControlD(ni, nj) {
			out = append(out, nj)
		}
	}
	return out
}

// ensureSCC runs Tarjan's algorithm, iteratively to avoid deep recursion on
// long straight-line graphs.
func (g *Graph) ensureSCC() {
	if g.sccID != nil {
		return
	}
	n := len(g.Nodes)
	g.sccID = make([]int, n)
	for i := range g.sccID {
		g.sccID[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter := 0

	type frame struct {
		v    int
		succ int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		work := []frame{{v: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.succ == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			succs := g.Nodes[v].Succs
			for f.succ < len(succs) {
				w := succs[f.succ].To.ID
				f.succ++
				if index[w] == -1 {
					work = append(work, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// All successors processed: pop.
			if low[v] == index[v] {
				var comp []*Node
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					g.sccID[w] = len(g.sccList)
					comp = append(comp, g.Nodes[w])
					if w == v {
						break
					}
				}
				g.sccList = append(g.sccList, comp)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
}

// GetSCC returns the strongly connected component containing n (paper
// Fig. 6, CheckLoops). For nodes not on a cycle, the component is {n}.
func (g *Graph) GetSCC(n *Node) []*Node {
	g.ensureSCC()
	return g.sccList[g.sccID[n.ID]]
}

// inCycle reports whether n lies on a cycle: its SCC has more than one node
// or it has a self loop.
func (g *Graph) inCycle(n *Node) bool {
	g.ensureSCC()
	if len(g.sccList[g.sccID[n.ID]]) > 1 {
		return true
	}
	for _, e := range n.Succs {
		if e.To == n {
			return true
		}
	}
	return false
}

// IsLoopEntryNode reports whether n is the entry node of a loop: n lies on a
// cycle and has a predecessor outside its SCC.
func (g *Graph) IsLoopEntryNode(n *Node) bool {
	if !g.inCycle(n) {
		return false
	}
	g.ensureSCC()
	for _, e := range n.Preds {
		if g.sccID[e.From.ID] != g.sccID[n.ID] {
			return true
		}
	}
	return false
}

// Vars returns the set of variable names read or written anywhere in the
// procedure (Definition 3.3).
func (g *Graph) Vars() map[string]bool {
	out := map[string]bool{}
	for _, n := range g.Nodes {
		if n.Def != "" {
			out[n.Def] = true
		}
		for v := range n.Use {
			out[v] = true
		}
	}
	return out
}
