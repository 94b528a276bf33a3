package dise

import (
	"math/bits"
	"sync"
	"time"

	"dise/internal/cfg"
	"dise/internal/symexec"
)

// This file implements phase 2 of DiSE: the directed symbolic execution of
// Fig. 6 in the paper, realized as a Pruner plugged into the exploration
// scheduler of internal/symexec. Four global sets — ExCond/ExWrite (explored
// affected nodes) and UnExCond/UnExWrite (affected nodes still to be
// explored) — steer the search: a successor state is explored only if some
// unexplored affected node is reachable from it (AffectedLocIsReachable);
// when exploration moves past a node from which previously-explored affected
// nodes are reachable again on a new path, those nodes are reset to
// unexplored so every sequence of affected nodes gets covered
// (ResetUnExploredSet); loop SCCs are reset wholesale at loop entries
// (CheckLoops).
//
// Depth-first order is the default strategy, not an invariant of the
// machinery — but it is privileged: the pruning decisions above are
// order-sensitive (which concrete path represents an affected-node sequence
// depends on the order decisions are made), and the paper's Theorem 3.10
// one-path-per-affected-sequence guarantee is stated over depth-first
// exploration. The scheduler therefore commits this pruner's decisions in
// canonical depth-first tree order at every strategy and parallelism level;
// a non-DFS strategy reorders the *speculative* expansion of states ahead of
// the committed walk (see internal/symexec/scheduler.go), never the
// decisions, so the reported affected path conditions are byte-identical to
// the classic sequential search.

// Runner executes the directed search over a symbolic execution engine for
// the modified program version. It implements symexec.Pruner; the engine's
// Config fixes the search strategy and parallelism.
type Runner struct {
	Engine   *symexec.Engine
	Affected *Affected

	// OnPath, when non-nil, is invoked for every affected path as it is
	// collected, before it is appended to the summary — always from the
	// committed walk's goroutine, never concurrently. Returning false stops
	// the search; the summary then holds the paths delivered so far. This is
	// the streaming hook behind the facade's AnalyzeStream.
	OnPath func(symexec.Path) bool

	// setsMu guards the four affected-node sets, bitsets over the modified
	// CFG's node IDs. Only the committed walk mutates them (single
	// goroutine, so its own reads are unsynchronized); the directed
	// strategy's score function reads them from worker goroutines under
	// RLock.
	setsMu    sync.RWMutex
	exCond    cfg.Bitset
	exWrite   cfg.Bitset
	unExCond  cfg.Bitset
	unExWrite cfg.Bitset
	stopped   bool

	// targets and resets are affectedLocIsReachable's working sets, reused
	// across calls. Safe without locking: every Pruner hook runs on the
	// committed walk's goroutine.
	targets cfg.Bitset
	resets  cfg.Bitset

	summary *symexec.Summary

	// PruneStats counts directed-search-specific events.
	PruneStats PruneStats
}

// PruneStats reports how much work the directed search avoided or discarded.
type PruneStats struct {
	// PrunedStates counts generated successor states rejected by
	// AffectedLocIsReachable.
	PrunedStates int
	// UnaffectedPaths counts explored paths that never touched an affected
	// node (possible when infeasible branches consume the targets the path
	// was steering toward); they are not part of DiSE's output.
	UnaffectedPaths int
	// Resets counts explored→unexplored transitions.
	Resets int
}

// NewRunner prepares a directed search. The engine must execute the modified
// version of the procedure whose CFG the affected sets were computed on.
func NewRunner(engine *symexec.Engine, affected *Affected) *Runner {
	n := len(engine.Graph.Nodes)
	r := &Runner{
		Engine:    engine,
		Affected:  affected,
		exCond:    cfg.NewBitset(n),
		exWrite:   cfg.NewBitset(n),
		unExCond:  cfg.NewBitset(n),
		unExWrite: cfg.NewBitset(n),
		targets:   cfg.NewBitset(n),
		resets:    cfg.NewBitset(n),
	}
	for id := range affected.ACN {
		r.unExCond.Set(id)
	}
	for id := range affected.AWN {
		r.unExWrite.Set(id)
	}
	return r
}

// Run performs the directed symbolic execution and returns the summary of
// affected path conditions.
func (r *Runner) Run() *symexec.Summary {
	start := time.Now()
	r.summary = &symexec.Summary{}
	explorer := symexec.NewExplorer(r.Engine, symexec.ExploreOptions{
		Pruner: r,
		Score:  r.distanceToUnexplored,
	})
	stats := explorer.Run().Stats
	stats.Time = time.Since(start)
	r.summary.Stats = stats
	return r.summary
}

// --- symexec.Pruner hooks (Fig. 6, committed in depth-first order) -----------

// Stopped reports a streaming early stop (OnPath returned false).
func (r *Runner) Stopped() bool { return r.stopped }

// Enter is lines 5–7 of Fig. 6: depth bound, error handling, and marking the
// state's node explored. Error states correspond to assertion violations
// (§5.1); we record them so DiSE supports bug finding, then stop exploring
// the path.
func (r *Runner) Enter(s *symexec.State) bool {
	if s.Depth > r.Engine.DepthBound() {
		return false
	}
	if s.Node.Kind == cfg.KindError {
		r.collect(s)
		return false
	}
	r.updateExploredSet(s.Node.ID)
	return true
}

// Expanded marks branch targets proven infeasible as explored: the executor
// reached the target instruction even though no state continues through it.
// Without this, an affected node behind an infeasible branch stays
// "unexplored" forever and attracts exploration of unaffected variants,
// inflating DiSE's output beyond the paper's numbers (§2.2 reports exactly 7
// path conditions for the motivating example, which requires the infeasible
// PedalCmd == 2 arms to stop attracting the search).
//
// Note the known incompleteness this inherits from the published algorithm:
// a node consumed here may be feasible under a different path prefix, and if
// the search later reaches that prefix with no unexplored affected node in
// sight (no "beacon" to trigger the reset machinery of lines 21–23), the new
// sequence is pruned. The paper's Theorem 3.10 idealizes this away; the
// randomized property test quantifies it (DESIGN.md §6.5).
func (r *Runner) Expanded(s *symexec.State, step symexec.Step) {
	for _, t := range step.InfeasibleTargets {
		r.updateExploredSet(t.ID)
	}
}

// Child is lines 8–10 of Fig. 6: explore successors whose paths can still
// reach unexplored affected nodes. Assertion-violation successors (§5.1) are
// always reported — a change that makes an assertion violable must not be
// pruned away by the reachability filter.
func (r *Runner) Child(c *symexec.State) symexec.ChildVerdict {
	switch {
	case c.Node.Kind == cfg.KindError:
		r.collect(c)
		return symexec.ChildEmit
	case r.affectedLocIsReachable(c):
		return symexec.ChildDescend
	default:
		r.PruneStats.PrunedStates++
		// Pruning is change-dependent (it depends on which nodes THIS pair of
		// versions affected) and order-sensitive, so the memo trie records it
		// as a decision to re-make, never to replay: the next version's
		// search re-decides reachability against its own affected sets, and
		// only solver verdicts — version-independent facts — are reused.
		c.MarkMemoPruned()
		return symexec.ChildPrune
	}
}

// Maximal handles a state with no explored successors: it terminates a
// maximal explored path whose path condition is complete with respect to the
// affected nodes (every affected node the path could reach has been
// covered), so it is emitted — unless the path never touched an affected
// conditional, in which case its path condition is unaffected by the change
// and DiSE does not report it.
func (r *Runner) Maximal(s *symexec.State) {
	if !r.Engine.Terminal(s) && s.Depth >= r.Engine.DepthBound() {
		// Depth-bounded, incomplete path: dropped, as in SPF.
		return
	}
	r.collect(s)
}

// distanceToUnexplored scores a state for the directed priority strategy:
// the CFG hop distance from the state's node to the nearest affected node
// still unexplored, so speculation is spent where the search is heading.
// States with no unexplored affected node in reach sort last.
func (r *Runner) distanceToUnexplored(s *symexec.State) int {
	g := r.Engine.Graph
	best := int(^uint(0) >> 1)
	r.setsMu.RLock()
	defer r.setsMu.RUnlock()
	for _, set := range [...]cfg.Bitset{r.unExCond, r.unExWrite} {
		for id := set.Next(0); id >= 0; id = set.Next(id + 1) {
			if d := g.Dist(s.Node.ID, id); d >= 0 && d < best {
				best = d
			}
		}
	}
	return best
}

// collect emits the path ending at s if it covers at least one affected
// node: affected conditionals contribute constraints directly, and affected
// writes "indirectly lead to the generation of affected path conditions"
// (§3.1) — a path explored to cover an affected write is reported even when
// no conditional is affected (cf. WBS v4 in the paper's Table 2, which has
// no affected nodes beyond the changed write yet one path condition). The
// node of s itself was visited (UpdateExploredSet ran on it), so it is part
// of the emitted trace even though it has not produced successors.
func (r *Runner) collect(s *symexec.State) {
	trace := s.Trace
	switch s.Node.Kind {
	case cfg.KindCond, cfg.KindWrite, cfg.KindNop:
		trace = append(append([]int{}, s.Trace...), s.Node.ID)
	}
	affected := false
	for _, id := range trace {
		if r.Affected.Contains(id) {
			affected = true
			break
		}
	}
	// A merged state's trace continues one representative sibling; the other
	// constituents' footprints live in Cover (state merging,
	// internal/symexec/merge.go) and count toward affectedness the same way.
	if !affected {
		for _, id := range s.Cover {
			if r.Affected.Contains(id) {
				affected = true
				break
			}
		}
	}
	if !affected {
		r.PruneStats.UnaffectedPaths++
		return
	}
	adjusted := *s
	adjusted.Trace = trace
	path := r.Engine.Collect(&adjusted)
	if r.OnPath != nil && !r.OnPath(path) {
		r.stopped = true
	}
	r.summary.Paths = append(r.summary.Paths, path)
}

// updateExploredSet is UpdateExploredSet of Fig. 6 (lines 30–35).
func (r *Runner) updateExploredSet(id int) {
	r.setsMu.Lock()
	defer r.setsMu.Unlock()
	if r.unExWrite.Has(id) {
		r.unExWrite.Clear(id)
		r.exWrite.Set(id)
	}
	if r.unExCond.Has(id) {
		r.unExCond.Clear(id)
		r.exCond.Set(id)
	}
}

// resetUnExploredSet is ResetUnExploredSet of Fig. 6 (lines 37–42).
func (r *Runner) resetUnExploredSet(id int) {
	r.setsMu.Lock()
	defer r.setsMu.Unlock()
	if r.exWrite.Has(id) {
		r.exWrite.Clear(id)
		r.unExWrite.Set(id)
		r.PruneStats.Resets++
	}
	if r.exCond.Has(id) {
		r.exCond.Clear(id)
		r.unExCond.Set(id)
		r.PruneStats.Resets++
	}
}

// affectedLocIsReachable is AffectedLocIsReachable of Fig. 6 (lines 13–24):
// it reports whether some unexplored affected node is reachable from the
// state's CFG node, resetting explored nodes that are reachable from such an
// unexplored node so that new sequences of affected nodes get explored.
//
// The paper loops over snapshots of the sets taken before any reset, and a
// reset is idempotent, so the loop is whole-set algebra over the CFG's
// reachability rows: the targets are reach[ni] ∧ UnEx, and the resets are
// Ex ∧ ⋃ reach[nj] over the targets nj.
func (r *Runner) affectedLocIsReachable(si *symexec.State) bool {
	g := r.Engine.Graph
	ni := si.Node
	r.checkLoops(ni)
	targets := r.targets
	copy(targets, r.unExCond)
	targets.Or(r.unExWrite)
	targets.And(g.ReachSet(ni.ID))
	nj := targets.Next(0)
	if nj < 0 {
		return false
	}
	resets := r.resets
	clear(resets)
	for ; nj >= 0; nj = targets.Next(nj + 1) {
		resets.Or(g.ReachSet(nj))
	}
	r.setsMu.Lock()
	r.PruneStats.Resets += transfer(r.exWrite, r.unExWrite, resets) + transfer(r.exCond, r.unExCond, resets)
	r.setsMu.Unlock()
	return true
}

// transfer moves the members of from that are in mask over to to, and
// returns how many moved.
func transfer(from, to, mask cfg.Bitset) int {
	moved := 0
	for w := range from {
		m := from[w] & mask[w]
		from[w] &^= m
		to[w] |= m
		moved += bits.OnesCount64(m)
	}
	return moved
}

// checkLoops is CheckLoops of Fig. 6 (lines 26–28): entering a loop resets
// every affected node of the loop's strongly connected component so that
// sequences of affected nodes across iterations are explored.
func (r *Runner) checkLoops(n *cfg.Node) {
	g := r.Engine.Graph
	if !g.IsLoopEntryNode(n) {
		return
	}
	for _, m := range g.GetSCC(n) {
		r.resetUnExploredSet(m.ID)
	}
}
