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
// post-dominance, SCCs, hop distances). A precomputed graph is safe to share
// across goroutines: the analysis caches are only written here, and every
// later accessor is a pure read. Callers that put graphs in a cross-request
// cache must call this before publishing the graph.
func (g *Graph) Precompute() {
	g.ensureReach()
	g.ensurePostDom()
	g.ensureSCC()
	g.ensureDist()
	g.ensureStableKeys()
}

// ensureReach computes the reflexive-transitive reachability relation.
func (g *Graph) ensureReach() {
	if g.reach != nil {
		return
	}
	n := len(g.Nodes)
	reach := make([]Bitset, n)
	// Process in reverse topological order where possible; a simple
	// worklist fixpoint is robust to cycles and fast at these sizes.
	for i := range reach {
		reach[i] = NewBitset(n)
		reach[i].Set(i) // Definition 3.2 admits the single-node sequence.
	}
	changed := true
	for changed {
		changed = false
		for _, node := range g.Nodes {
			for _, e := range node.Succs {
				if reach[node.ID].Or(reach[e.To.ID]) {
					changed = true
				}
			}
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
// included: the row of the IsCFGPath relation. The set is the graph's own
// and must not be modified.
func (g *Graph) ReachSet(from int) Bitset {
	g.ensureReach()
	return g.reach[from]
}

// ensureDist computes all-pairs hop distances with one BFS per node. The
// graphs are procedure CFGs (tens to low hundreds of nodes), so the dense
// V×V matrix is small and the computation is dominated by the reachability
// fixpoint that already runs for every analysis.
func (g *Graph) ensureDist() {
	if g.dist != nil {
		return
	}
	n := len(g.Nodes)
	dist := make([][]int32, n)
	queue := make([]int, 0, n)
	for from := range dist {
		row := make([]int32, n)
		for i := range row {
			row[i] = -1
		}
		row[from] = 0
		queue = queue[:0]
		queue = append(queue, from)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range g.Nodes[v].Succs {
				if w := e.To.ID; row[w] < 0 {
					row[w] = row[v] + 1
					queue = append(queue, w)
				}
			}
		}
		dist[from] = row
	}
	g.dist = dist
}

// Dist returns the minimum number of CFG edges on a path from node `from` to
// node `to`, or -1 when `to` is unreachable from `from`. Directed search
// strategies use it to order states by proximity to a target node.
func (g *Graph) Dist(from, to int) int {
	g.ensureDist()
	return int(g.dist[from][to])
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
