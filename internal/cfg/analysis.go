package cfg

// This file implements the relational analyses of the DiSE paper:
//
//   - IsCFGPath (Definition 3.2): reflexive-transitive reachability,
//   - postDom (Definition 3.8): post-dominance, as a post-dominator tree,
//   - controlD (Definition 3.9): control dependence, as one list of
//     dependents per branch,
//   - GetSCC / IsLoopEntryNode: strongly connected components for the
//     CheckLoops procedure of Fig. 6.
//
// All analyses are computed once on demand and cached on the Graph. Graphs
// are immutable after Build, so the caches never invalidate.

import (
	"math/bits"
	"slices"
)

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

// Precompute forces the lazily-computed analyses the DiSE algorithms read
// (reachability, post-dominance and control dependence, SCCs). A
// precomputed graph is safe to share across goroutines: those caches are
// only written here, every later accessor is a pure read, and StableKeys
// builds its keys under a sync.Once. Callers that put graphs in a
// cross-request cache must call this before publishing the graph.
func (g *Graph) Precompute() {
	g.ensureReach()
	g.ensurePostDom()
}

// ensureReach computes the reflexive-transitive reachability relation in
// one pass over the SCC condensation. Tarjan emits a component only after
// every component it reaches, so when a component comes up in component
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
	w := len(NewBitset(n))
	rows := make([]uint64, (len(g.sccStart)-1)*w) // one row per component
	for c := 0; c+1 < len(g.sccStart); c++ {
		comp := g.sccNodes[g.sccStart[c]:g.sccStart[c+1]]
		row := Bitset(rows[c*w : (c+1)*w : (c+1)*w])
		for _, m := range comp {
			row.Set(m.ID)
			for _, e := range m.Succs {
				if int(g.sccID[e.To.ID]) != c {
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

// ensurePostDom builds the post-dominator tree, rooted at End, with the
// algorithm of Cooper, Harvey and Kennedy ("A Simple, Fast Dominance
// Algorithm", 2001) run on the reversed graph, numbers the tree in preorder
// so that PostDom is an interval test, and derives every branch's control
// dependents from the tree (Ferrante, Ottenstein and Warren, 1987).
//
// A node that cannot reach End has no place in the tree. Every node of a
// graph from Build reaches End; for any other node PostDom answers as the
// dataflow definition pdom(n) = {n} ∪ ⋂_{s ∈ succ(n)} pdom(s) does when
// solved from full sets: every node post-dominates it.
func (g *Graph) ensurePostDom() {
	if g.pdPre != nil {
		return
	}
	n := len(g.Nodes)
	end := int32(g.End.ID)
	// Postorder of the reversed graph from End: a depth-first walk over
	// predecessor edges. po[v] is v's postorder number.
	po := make([]int32, n)
	order := make([]int32, 0, n)
	type frame struct{ v, next int32 }
	seen := make([]bool, n)
	stack := []frame{{v: end}}
	seen[end] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if preds := g.Nodes[f.v].Preds; int(f.next) < len(preds) {
			w := int32(preds[f.next].From.ID)
			f.next++
			if !seen[w] {
				seen[w] = true
				stack = append(stack, frame{v: w})
			}
			continue
		}
		po[f.v] = int32(len(order))
		order = append(order, f.v)
		stack = stack[:len(stack)-1]
	}
	// Immediate post-dominators, iterated in reverse postorder to a fixed
	// point (usually two passes). ipdom[End] = End; -1 = not yet known.
	ipdom := make([]int32, n)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[end] = end
	for changed := true; changed; {
		changed = false
		for k := len(order) - 2; k >= 0; k-- { // order ends with End
			v := order[k]
			idom := int32(-1)
			for _, e := range g.Nodes[v].Succs {
				s := int32(e.To.ID)
				switch {
				case ipdom[s] < 0:
				case idom < 0:
					idom = s
				default:
					for idom != s {
						for po[idom] < po[s] {
							idom = ipdom[idom]
						}
						for po[s] < po[idom] {
							s = ipdom[s]
						}
					}
				}
			}
			if ipdom[v] != idom {
				ipdom[v] = idom
				changed = true
			}
		}
	}
	// Number the tree in preorder, so that the subtree of v is the range
	// [pre[v], pre[v]+size[v]). A post-dominator of v is an ancestor of v
	// in the depth-first tree, so it comes later in order: ascending order
	// visits children before parents, descending order parents first.
	size := make([]int32, n)
	for _, v := range order {
		size[v]++
		if v != end {
			size[ipdom[v]] += size[v]
		}
	}
	pre := make([]int32, n)
	for i := range pre {
		pre[i] = -1
	}
	next := make([]int32, n) // the first free number in v's subtree
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		if v == end {
			pre[v] = 0
		} else {
			p := ipdom[v]
			pre[v] = next[p]
			next[p] += size[v]
		}
		next[v] = pre[v] + 1
	}
	g.pdPre, g.pdSize = pre, size
	g.controlDependence(ipdom)
}

// controlDependence lists, for every node ni, the nodes control dependent
// on it (Definition 3.9). For an edge ni → b where b does not post-dominate
// ni, the dependents through that edge are the tree path from b up to, but
// not including, ipdom(ni): each of them post-dominates b and none
// post-dominates ni's other successor. A loop head lies on the path of its
// body edge, so it depends on itself; a branch whose two edges reach the
// same node has b = ipdom(ni) and no dependents. The two edges' paths are
// disjoint (a node on both would post-dominate ni), so each list only needs
// sorting.
func (g *Graph) controlDependence(ipdom []int32) {
	n := len(g.Nodes)
	start := make([]int32, n+1)
	var deps []*Node
	for _, ni := range g.Nodes {
		first := len(deps)
		if len(ni.Succs) >= 2 && ipdom[ni.ID] >= 0 {
			stop := ipdom[ni.ID]
			for _, e := range ni.Succs {
				for v := int32(e.To.ID); v != stop && ipdom[v] >= 0; v = ipdom[v] {
					deps = append(deps, g.Nodes[v])
				}
			}
			slices.SortFunc(deps[first:], func(a, b *Node) int { return a.ID - b.ID })
		}
		start[ni.ID+1] = int32(len(deps))
	}
	g.cdStart, g.cdNodes = start, deps
}

// PostDom reports whether nj post-dominates ni (Definition 3.8): every CFG
// path from ni to end passes through nj. The relation is reflexive.
func (g *Graph) PostDom(ni, nj *Node) bool {
	g.ensurePostDom()
	i, j := g.pdPre[ni.ID], g.pdPre[nj.ID]
	if i < 0 {
		return true
	}
	return j >= 0 && j <= i && i < j+g.pdSize[nj.ID]
}

// ControlD reports whether nj is control dependent on ni (Definition 3.9):
// ni has two distinct successors nk and nl such that nj post-dominates nk
// but does not post-dominate nl.
func (g *Graph) ControlD(ni, nj *Node) bool {
	if len(ni.Succs) < 2 {
		return false
	}
	postDominatesSome := false
	missesSome := false
	for _, e := range ni.Succs {
		if g.PostDom(e.To, nj) {
			postDominatesSome = true
		} else {
			missesSome = true
		}
	}
	return postDominatesSome && missesSome
}

// ControlDependents returns all nodes control dependent on ni, in ID order.
// The slice is the graph's own and must not be modified.
func (g *Graph) ControlDependents(ni *Node) []*Node {
	g.ensurePostDom()
	return g.cdNodes[g.cdStart[ni.ID]:g.cdStart[ni.ID+1]]
}

// ensureSCC runs Tarjan's algorithm, iteratively to avoid deep recursion on
// long straight-line graphs.
func (g *Graph) ensureSCC() {
	if g.sccID != nil {
		return
	}
	n := len(g.Nodes)
	sccID := make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	members := make([]*Node, 0, n)
	starts := []int32{0}
	var stack []int32
	counter := int32(0)

	type frame struct {
		v    int32
		succ int
	}
	var work []frame
	for root := int32(0); int(root) < n; root++ {
		if index[root] != -1 {
			continue
		}
		work = append(work[:0], frame{v: root})
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
				w := int32(succs[f.succ].To.ID)
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
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					sccID[w] = int32(len(starts) - 1)
					members = append(members, g.Nodes[w])
					if w == v {
						break
					}
				}
				starts = append(starts, int32(len(members)))
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
	g.sccID, g.sccStart, g.sccNodes = sccID, starts, members
}

// GetSCC returns the strongly connected component containing n (paper
// Fig. 6, CheckLoops). For nodes not on a cycle, the component is {n}. The
// slice is the graph's own and must not be modified.
func (g *Graph) GetSCC(n *Node) []*Node {
	g.ensureSCC()
	c := g.sccID[n.ID]
	return g.sccNodes[g.sccStart[c]:g.sccStart[c+1]]
}

// inCycle reports whether n lies on a cycle: its SCC has more than one node
// or it has a self loop.
func (g *Graph) inCycle(n *Node) bool {
	if len(g.GetSCC(n)) > 1 {
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
		for _, v := range n.Use {
			out[v] = true
		}
	}
	return out
}
