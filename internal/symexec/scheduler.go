package symexec

// This file implements the exploration scheduler: a depth-first walk of
// self-contained symbolic states on one engine, with an optional Pruner
// steering which states are explored.
//
// The walk visits states in the preorder of the recursive exploration, first
// (true-branch) successor first: depth-first, the order the paper's Theorem
// 3.10 guarantee is stated over, and the order with the best solver-stack
// locality (each expansion pops or pushes about one assertion frame of the
// engine's single solver context, Engine.syncStack).
//
// Two driving modes share the engine:
//
//   - Free exploration (Pruner == nil, full symbolic execution): a stack of
//     states, siblings pushed last first so the true branch pops first;
//     terminal states are collected as paths in pop order.
//
//   - Committed exploration (Pruner != nil, DiSE's directed search): the
//     pruning decisions of DiSE (explored/unexplored affected sets with
//     resets) are inherently sequential — which path represents an affected
//     sequence depends on the order decisions are made. The walk recurses
//     depth-first, expanding each state inline and applying the pruner's
//     decisions to its successors in execution order.
//
// Both run on the caller's goroutine. Parallelism lives across requests
// (the facade's AnalyzeBatch and the daemon's admission slots), whose
// engines share a constraint.PrefixCache.

import (
	"dise/internal/cfg"
	"dise/internal/sym"
)

// ChildVerdict is a Pruner's decision about one feasible successor state.
type ChildVerdict int

const (
	// ChildPrune drops the successor and its whole subtree.
	ChildPrune ChildVerdict = iota
	// ChildDescend explores the successor.
	ChildDescend
	// ChildEmit counts the successor as explored without descending into
	// it — the pruner has consumed it itself (DiSE emits error-sink
	// successors as paths directly).
	ChildEmit
)

// Pruner observes and steers a committed exploration. All methods are
// invoked on the exploring goroutine, in depth-first tree order (heap order
// under state merging) — a pruner therefore needs no internal locking.
type Pruner interface {
	// A state passed to a hook is valid only during the call: the walk
	// reuses it once it is expanded, dropped or collected, so a pruner that
	// keeps a state's data copies it (as DiSE's collect does).
	//
	// Enter is called when the committed walk reaches s, before expansion.
	// Returning false stops the walk at s — the pruner has either dropped
	// the state or consumed it as a path itself.
	Enter(s *State) bool
	// Expanded is called with the branch targets s's expansion found
	// infeasible (Step.InfeasibleTargets), before the successors are
	// filtered. The list is only valid during the call.
	Expanded(s *State, infeasible []*cfg.Node)
	// Child decides the fate of one feasible successor, in execution order.
	Child(c *State) ChildVerdict
	// Maximal is called when no successor of s was explored (every one
	// pruned, or none feasible): s terminates a maximal explored path.
	Maximal(s *State)
	// Stopped reports that the search should halt (streaming early stop).
	Stopped() bool
}

// ExploreOptions configures an Explorer beyond what the engine's Config
// (MaxStates, Interrupt, MergeBound) already fixes.
type ExploreOptions struct {
	// Pruner, when non-nil, selects committed exploration with the pruner's
	// decisions applied in depth-first order.
	Pruner Pruner
	// CountOnly makes a free exploration count its terminal paths
	// (Stats.PathsExplored) without collecting them: Summary.Paths stays
	// empty. A session's seeding run explores only to record the memo trie
	// and reads none of the paths. Merged explorations (Config.MergeBound)
	// ignore it; sessions reject merging.
	CountOnly bool
}

// Explorer drives one exploration over one engine. Construct with
// NewExplorer, call Run once.
type Explorer struct {
	e    *Engine
	opts ExploreOptions

	// State-merging counters (merge.go); zero without Config.MergeBound.
	merges      int
	mergedSaved int
	iteNodes    map[*sym.Ite]struct{} // distinct ite nodes this run's fusions built
	mergeSeq    uint64                // merge-queue insertions, the tie-break of equal RPO

	summary *Summary
	paths   PathList // the free and merged walks' collected paths
}

// NewExplorer prepares an exploration of e's procedure.
func NewExplorer(e *Engine, opts ExploreOptions) *Explorer {
	return &Explorer{e: e, opts: opts}
}

// Run performs the exploration and returns its summary: the engine's
// counters plus the merge counters. In committed mode the pruner emits
// paths itself, so only Summary.Stats is meaningful. Run must be called
// exactly once. Stats.Time is left to the caller.
func (x *Explorer) Run() *Summary {
	x.summary = &Summary{}
	s0 := x.e.InitialState()
	switch {
	case x.e.config.MergeBound != 0:
		x.runMerged(s0)
	case x.opts.Pruner != nil:
		x.commit(s0)
	default:
		x.runFree(s0)
	}
	st := x.e.Stats()
	if bound := x.e.config.MergeBound; bound != 0 {
		st.Merge = MergeStats{
			Enabled:           true,
			Bound:             bound,
			Merges:            x.merges,
			MergedStatesSaved: x.mergedSaved,
			IteNodes:          len(x.iteNodes),
		}
	}
	x.summary.Paths = x.paths.Paths()
	x.summary.Stats = st
	return x.summary
}

// runFree is full symbolic execution: pop a state, collect it if terminal,
// stack its successors otherwise. The MaxStates valve is polled before
// every pop, and an interrupt stops the run within one step.
func (x *Explorer) runFree(s0 *State) {
	e := x.e
	stack := []*State{s0}
	for len(stack) > 0 && e.interruptErr == nil && !e.BudgetExhausted() {
		s := stack[len(stack)-1]
		stack[len(stack)-1] = nil
		stack = stack[:len(stack)-1]
		if e.Terminal(s) {
			if x.opts.CountOnly {
				e.stats.PathsExplored++
			} else {
				x.paths.Add(e.Collect(s))
			}
			e.release(s)
			continue
		}
		var kids [2]*State
		succ, _ := e.expand(s, kids[:0], e.infScratch[:0])
		for i := len(succ) - 1; i >= 0; i-- {
			stack = append(stack, succ[i])
		}
		e.release(s)
	}
}

// commit is the committed walk: a depth-first recursion applying the
// pruner's decisions in execution order — the recursive directed search of
// the paper's Fig. 6 with the DiSE-specific decisions behind the Pruner
// hooks.
func (x *Explorer) commit(s *State) {
	e, p := x.e, x.opts.Pruner
	if p.Stopped() || e.interruptErr != nil || e.BudgetExhausted() {
		return
	}
	if !p.Enter(s) {
		e.release(s)
		return
	}
	var kids [2]*State
	feasible, infeasible := e.expand(s, kids[:0], e.infScratch[:0])
	if e.interruptErr != nil {
		// Expansion was aborted mid-step: the empty successor list does not
		// mean this path is maximal, so do not let the pruner collect it.
		return
	}
	p.Expanded(s, infeasible)
	explored := false
	for _, c := range feasible {
		switch p.Child(c) {
		case ChildDescend:
			explored = true
			x.commit(c) // releases c
			continue
		case ChildEmit:
			explored = true
		}
		e.release(c)
	}
	if !explored {
		p.Maximal(s)
	}
	e.release(s)
}
