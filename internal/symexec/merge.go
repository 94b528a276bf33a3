package symexec

// This file implements bounded state merging (Config.MergeBound): a
// veritesting-style exploration mode that fuses sibling states at CFG join
// points instead of exploring each of them separately, collapsing the
// exponential path explosion of diamond chains into a linear number of
// merged states.
//
// The scheduler is a reverse-postorder min-heap over pending states. Popping
// the heap minimum yields the pending state whose CFG node is earliest in
// reverse postorder; every other pending state sits at a node later in that
// order and can therefore only reach the minimum's node through a back edge.
// For forward control flow — the diamond chains that cause the explosion —
// this means all sibling states bound for a join have arrived by the time
// the join is popped, so the scheduler pops the whole batch at once and
// merges it. States arriving over back edges (loop iterations) simply form
// later, smaller batches: merging is opportunistic and its extent never
// affects correctness, only how much work is saved.
//
// Merging a group of siblings at a join:
//
//   - Their path conditions share a common prefix P (the shared tail of the
//     copy-on-write PathCond lists — found by pointer-walking, not by
//     comparing conjuncts). Each sibling i contributes a suffix conjunction
//     d_i, its branch decisions since the group diverged. The merged path
//     condition is P ∧ (d_1 ∨ … ∨ d_k); when the suffixes are a complement
//     pair (a bare diamond: d, ¬d) the disjunction is true and the merged
//     state continues under P alone.
//   - The merged environment maps each variable to the ite-fusion of the
//     siblings' values: ite(d_1, v_1, ite(d_2, v_2, … v_k)), built with the
//     sym.ITE smart constructor so equal arms collapse and constant-armed
//     chains stay in the solver's linear fragment. Because any two sibling
//     suffixes contain the complementary conjuncts of their divergence
//     branch, the guards are mutually exclusive by construction and the
//     fusion is exact, not an over-approximation.
//   - The merged state keeps the first sibling's trace as its ongoing
//     history and records every other constituent's coverage in
//     State.Cover, so affected-node accounting (internal/dise) still sees
//     everything any constituent executed.
//   - The first sibling's witness model still satisfies P ∧ d_1 and hence
//     the merged disjunction, so the parent-model fast path keeps working.
//
// A branch is feasible under the merged condition iff it is feasible for at
// least one constituent — Sat(P ∧ (∨ d_i) ∧ c) ⇔ ∃i Sat(P ∧ d_i ∧ c) — so a
// merged run covers exactly the branches the unmerged run covers; that is
// the verdict-equivalence guarantee the mode ships under (identical
// affected-branch coverage and per-branch test feasibility, not identical
// path sets).
//
// Merged exploration is sequential: one engine, one solver context. The
// merge queue replaces the strategy frontier, and a Pruner (DiSE's directed
// search) is driven from the same goroutine in heap order.

import (
	"container/heap"
	"sort"

	"dise/internal/cfg"
	"dise/internal/sym"
)

// mergeItem is one pending state in the merge queue.
type mergeItem struct {
	state *State
	rpo   int    // reverse-postorder index of state.Node
	seq   uint64 // insertion order, for deterministic ties
}

// mergeQueue is a binary min-heap over (rpo, seq).
type mergeQueue []*mergeItem

func (q mergeQueue) Len() int { return len(q) }
func (q mergeQueue) Less(i, j int) bool {
	if q[i].rpo != q[j].rpo {
		return q[i].rpo < q[j].rpo
	}
	return q[i].seq < q[j].seq
}
func (q mergeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *mergeQueue) Push(x any)   { *q = append(*q, x.(*mergeItem)) }
func (q *mergeQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// rpoIndex computes the reverse-postorder index of every node, by iterative
// DFS from the begin node. Every node is reachable from begin (the cfg
// package's construction invariant), so the map is total.
func rpoIndex(g *cfg.Graph) []int {
	idx := make([]int, len(g.Nodes))
	seen := make([]bool, len(g.Nodes))
	post := make([]int, 0, len(g.Nodes))
	type frame struct {
		n *cfg.Node
		i int
	}
	stack := []frame{{g.Begin, 0}}
	seen[g.Begin.ID] = true
	//diselint:ignore interruptloop bounded: each node enters the DFS stack at most once
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.n.Succs) {
			// Visit successors in reverse so the first sibling (the true
			// branch) finishes last and lands earlier in reverse postorder —
			// the heap then drains true arms first, like the DFS frontier.
			to := f.n.Succs[len(f.n.Succs)-1-f.i].To
			f.i++
			if !seen[to.ID] {
				seen[to.ID] = true
				stack = append(stack, frame{n: to})
			}
			continue
		}
		post = append(post, f.n.ID)
		stack = stack[:len(stack)-1]
	}
	for i, id := range post {
		idx[id] = len(post) - 1 - i
	}
	return idx
}

// mergeableJoin reports whether states pending at n are candidates for
// merging: a statement node where control flow joins. Terminal nodes (end,
// error sink) never merge — path output stays per-state.
func mergeableJoin(n *cfg.Node) bool {
	switch n.Kind {
	case cfg.KindCond, cfg.KindWrite, cfg.KindNop:
		return len(n.Preds) >= 2
	}
	return false
}

// runMerged drains the merge queue on the caller's engine. It serves both
// driving modes: with a Pruner it applies the pruner's decisions (all hooks
// on this goroutine, like the committed walk); without one it collects
// terminal paths itself.
func (x *Explorer) runMerged() {
	e := x.engines[0]
	p := x.opts.Pruner
	iteBefore := sym.ITENodesBuilt()
	defer func() { x.iteNodes = int(sym.ITENodesBuilt() - iteBefore) }()

	rpo := rpoIndex(e.Graph)
	q := mergeQueue{}
	x.seq++
	heap.Push(&q, &mergeItem{state: x.root.state, rpo: rpo[x.root.state.Node.ID], seq: x.seq})

	//diselint:ignore interruptloop bounded: every pop either terminates a path or advances Depth toward the depth bound; Engine.Step polls Config.Interrupt
	for q.Len() > 0 {
		if p != nil && p.Stopped() {
			return
		}
		if x.overBudget() {
			return
		}
		// Pop the whole batch pending at the minimum's node.
		it := heap.Pop(&q).(*mergeItem)
		batch := []*State{it.state}
		//diselint:ignore interruptloop bounded: pops one queue entry per iteration
		for q.Len() > 0 && q[0].state.Node == it.state.Node {
			batch = append(batch, heap.Pop(&q).(*mergeItem).state)
		}
		states := batch
		if len(batch) >= 2 && mergeableJoin(it.state.Node) {
			states = x.mergeBatch(batch, e.config.MergeBound, e.config.MergeBudget)
		}
		for _, s := range states {
			x.expandMerged(s, e, rpo, &q)
			if x.interrupted() {
				return
			}
		}
	}
}

// expandMerged expands one state, pushing its feasible successors back into
// the merge queue (or handing them to the pruner first, in committed mode).
func (x *Explorer) expandMerged(s *State, e *Engine, rpo []int, q *mergeQueue) {
	p := x.opts.Pruner
	if p == nil && e.Terminal(s) {
		x.summary.Paths = append(x.summary.Paths, e.Collect(s))
		return
	}
	if p != nil && !p.Enter(s) {
		return
	}
	before := coreOf(e.stats)
	step := e.Step(s)
	delta := coreOf(e.stats).sub(before)
	x.mu.Lock()
	x.coreStats.add(delta)
	x.created += len(step.Feasible)
	x.mu.Unlock()
	if e.interruptErr != nil {
		// Aborted mid-step: the empty successor list does not mean the path
		// is maximal, so the pruner must not collect it.
		x.fail(e.interruptErr)
		return
	}
	if p != nil {
		p.Expanded(s, step)
		explored := false
		for _, c := range step.Feasible {
			switch p.Child(c) {
			case ChildDescend:
				explored = true
				x.pushMerge(q, rpo, c)
			case ChildEmit:
				explored = true
			}
		}
		if !explored {
			p.Maximal(s)
		}
		return
	}
	for _, c := range step.Feasible {
		x.pushMerge(q, rpo, c)
	}
}

func (x *Explorer) pushMerge(q *mergeQueue, rpo []int, s *State) {
	x.seq++
	heap.Push(q, &mergeItem{state: s, rpo: rpo[s.Node.ID], seq: x.seq})
}

// mergeBatch partitions a batch of sibling states pending at one join into
// mergeable groups, chunks each group by the merge bound, and fuses every
// chunk of two or more into a single state. Singletons (and everything once
// the merge budget is spent) pass through unchanged.
func (x *Explorer) mergeBatch(batch []*State, bound, budget int) []*State {
	// Group by mergeability: identical environment name-sets (value bindings
	// may differ — that is what the ite fuses) and identical error flags.
	// Batch order — (rpo, seq) pop order — is preserved within groups, so
	// the output is deterministic.
	type group struct {
		key    string
		states []*State
	}
	var groups []*group
	byKey := map[string]*group{}
	for _, s := range batch {
		key := envShapeKey(s)
		g := byKey[key]
		if g == nil {
			g = &group{key: key}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.states = append(g.states, s)
	}
	out := make([]*State, 0, len(batch))
	for _, g := range groups {
		states := g.states
		//diselint:ignore interruptloop bounded: consumes at least one state per iteration
		for len(states) > 0 {
			if budget > 0 && x.merges >= budget {
				out = append(out, states...)
				break
			}
			chunk := states
			if bound >= 2 && len(chunk) > bound {
				chunk = chunk[:bound]
			}
			states = states[len(chunk):]
			if len(chunk) < 2 {
				out = append(out, chunk...)
				continue
			}
			out = append(out, x.mergeStates(chunk))
		}
	}
	return out
}

// envShapeKey digests the parts of a state that must agree for merging: the
// environment's name-set and the error flag.
func envShapeKey(s *State) string {
	n := 0
	s.Env.Each(func(name string, _ sym.Expr) { n += len(name) + 1 })
	b := make([]byte, 0, n+1)
	if s.Err {
		b = append(b, '!')
	}
	s.Env.Each(func(name string, _ sym.Expr) {
		b = append(b, name...)
		b = append(b, 0)
	})
	return string(b)
}

// mergeStates fuses a group of two or more sibling states at one node into
// a single state, per the scheme in the file comment.
func (x *Explorer) mergeStates(group []*State) *State {
	prefix := commonPC(group)
	suffixes := make([][]sym.Expr, len(group))
	deltas := make([]sym.Expr, len(group))
	for i, s := range group {
		suffixes[i] = suffixConjuncts(s.PC, prefix)
		deltas[i] = conjoin(suffixes[i])
	}

	// Merged path condition: prefix ∧ (d_1 ∨ … ∨ d_k), with the disjunction
	// factored along the suffixes' divergence structure so complementary
	// branch pairs cancel — a bare diamond (d, ¬d), and more generally any
	// join whose siblings cover every outcome of their divergence branches,
	// appends nothing.
	or := orOfSuffixes(suffixes)
	pc := prefix
	if bc, ok := or.(*sym.BoolConst); !ok || !bc.V {
		pc = pc.Append(or)
	}

	// Merged environment: ite-fuse differing bindings, guarded by the path
	// suffixes. The groups share one name-set (envShapeKey), so the
	// flattened, name-sorted entry slices align index by index.
	rep := group[0]
	bindings := make([][]envEntry, len(group))
	for i, s := range group {
		bindings[i] = s.Env.flat()
	}
	entries := make([]envEntry, len(bindings[0]))
	for i := range entries {
		acc := bindings[len(group)-1][i].val
		for j := len(group) - 2; j >= 0; j-- {
			acc = sym.ITE(deltas[j], bindings[j][i].val, acc)
		}
		entries[i] = envEntry{name: bindings[0][i].name, val: acc}
	}
	env := Env{base: entries}

	// Coverage: the merged state's Trace continues the representative's
	// history; Cover retains every constituent's footprint for affected-node
	// accounting.
	cover := map[int]bool{}
	for _, s := range group {
		for _, id := range s.Trace.Slice() {
			cover[id] = true
		}
		for _, id := range s.Cover {
			cover[id] = true
		}
	}
	coverIDs := make([]int, 0, len(cover))
	for id := range cover {
		coverIDs = append(coverIDs, id)
	}
	sort.Ints(coverIDs)

	depth := rep.Depth
	for _, s := range group[1:] {
		if s.Depth > depth {
			depth = s.Depth
		}
	}

	x.mu.Lock()
	x.merges++
	x.mergedSaved += len(group) - 1
	x.mu.Unlock()

	return &State{
		Node:  rep.Node,
		Env:   env,
		PC:    pc,
		Depth: depth,
		Trace: rep.Trace,
		Cover: coverIDs,
		Err:   rep.Err,
		model: rep.model, // satisfies prefix ∧ d_1, hence the disjunction
	}
}

// commonPC returns the longest shared tail of the group's path conditions —
// pointer-walked, so it is the exact PathCond cell chain the copy-on-write
// forks shared, not a structural comparison.
func commonPC(group []*State) *PathCond {
	p := group[0].PC
	for _, s := range group[1:] {
		p = commonTail(p, s.PC)
	}
	return p
}

func commonTail(a, b *PathCond) *PathCond {
	//diselint:ignore interruptloop bounded: shortens a by one cell per iteration
	for a.Len() > b.Len() {
		a = a.parent
	}
	//diselint:ignore interruptloop bounded: shortens b by one cell per iteration
	for b.Len() > a.Len() {
		b = b.parent
	}
	//diselint:ignore interruptloop bounded: both chains shorten in lockstep until nil
	for a != b {
		a = a.parent
		b = b.parent
	}
	return a
}

// suffixConjuncts lists the conjuncts of pc below the shared prefix, in
// path order. The suffix of any sibling in a merge group is non-empty (the
// group diverged at a branch, which appended a conjunct to every diverging
// arm), but an empty suffix degrades gracefully.
func suffixConjuncts(pc, prefix *PathCond) []sym.Expr {
	n := pc.Len() - prefix.Len()
	if n <= 0 {
		return nil
	}
	cs := make([]sym.Expr, n)
	//diselint:ignore interruptloop bounded: walks n cells of the suffix
	for c := pc; c != prefix; c = c.parent {
		n--
		cs[n] = c.c
	}
	return cs
}

// conjoin AndE-folds a conjunct list; empty folds to true.
func conjoin(cs []sym.Expr) sym.Expr {
	if len(cs) == 0 {
		return sym.True
	}
	out := cs[0]
	for _, c := range cs[1:] {
		out = sym.AndE(out, c)
	}
	return out
}

// orOfSuffixes factors the disjunction of the siblings' path suffixes along
// their divergence structure: suffixes are grouped by first conjunct, each
// group contributes first ∧ (disjunction of the rests), and when exactly two
// groups remain whose first conjuncts are complementary and whose rests both
// folded to true, the whole disjunction is true. Because the engine appends
// c to one arm and ¬c (interned, so pointer-comparable) to the other at
// every divergence, this cancels complete sibling sets — the dominant merge
// shape — to nothing instead of dragging tautological disjunctions into the
// solver.
func orOfSuffixes(suffixes [][]sym.Expr) sym.Expr {
	if len(suffixes) == 1 {
		return conjoin(suffixes[0])
	}
	for _, s := range suffixes {
		if len(s) == 0 {
			// A sibling with an empty suffix subsumes the whole group.
			return sym.True
		}
	}
	type group struct {
		first sym.Expr
		rests [][]sym.Expr
	}
	var groups []*group
	byFirst := map[sym.Expr]*group{}
	for _, s := range suffixes {
		g := byFirst[s[0]]
		if g == nil {
			g = &group{first: s[0]}
			byFirst[s[0]] = g
			groups = append(groups, g)
		}
		g.rests = append(g.rests, s[1:])
	}
	parts := make([]sym.Expr, len(groups))
	for i, g := range groups {
		parts[i] = sym.AndE(g.first, orOfSuffixes(g.rests))
	}
	if len(groups) == 2 && parts[0] == groups[0].first && parts[1] == groups[1].first &&
		(groups[1].first == sym.NotE(groups[0].first) || groups[0].first == sym.NotE(groups[1].first)) {
		return sym.True
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = sym.OrE(out, p)
	}
	return out
}
