package symexec

// This file implements the exploration scheduler: a worklist of
// self-contained symbolic states drained under a pluggable Strategy
// (frontier.go), with optional parallel intra-query exploration and an
// optional Pruner steering which states are explored.
//
// Two driving modes share the frontier, the worker pool and the per-worker
// engine forks:
//
//   - Free exploration (Pruner == nil, full symbolic execution): workers
//     drain the frontier in strategy order, expanding states and collecting
//     terminal paths. Branch feasibility is path-local, so every strategy and
//     every parallelism level yields the same path set; under parallelism the
//     summary is assembled in canonical execution-tree preorder so the output
//     is deterministic (and equal to the depth-first order) regardless of
//     worker interleaving.
//
//   - Committed exploration (Pruner != nil, DiSE's directed search): the
//     pruning decisions of DiSE (explored/unexplored affected sets with
//     resets) are inherently sequential — which path represents an affected
//     sequence depends on the order decisions are made, and the paper's
//     Theorem 3.10 guarantee is stated over depth-first order. The scheduler
//     therefore commits pruner decisions in canonical depth-first tree order
//     on the caller's goroutine, while the worker pool speculatively expands
//     frontier states (in strategy order) ahead of the committed walk. The
//     expensive work — Engine.Step and its constraint solving — parallelizes;
//     the decisions, and hence the output, are byte-identical to the
//     sequential search at every strategy and parallelism level. Subtrees the
//     committed walk prunes are cancelled so speculation stops chasing them.
//
// Workers never share mutable solver state: each owns an Engine fork with a
// private constraint.Backend assertion stack (the syncStack PC-diff
// tolerates expanding states in any order), and all forks share one
// constraint.PrefixCache so prefixes solved by one worker are reused by the
// others.

import (
	"sync"
	"sync/atomic"

	"dise/internal/constraint"
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
// invoked from the committed walk's goroutine, in canonical depth-first tree
// order, regardless of the scheduler's strategy or parallelism — a pruner
// therefore needs no internal locking for these calls. (A strategy score
// function reading the same state is the one exception; see
// ExploreOptions.Score.)
type Pruner interface {
	// Enter is called when the committed walk reaches s, before expansion.
	// Returning false stops the walk at s — the pruner has either dropped
	// the state or consumed it as a path itself.
	Enter(s *State) bool
	// Expanded is called with s's expansion result, before the successors
	// are filtered.
	Expanded(s *State, step Step)
	// Child decides the fate of one feasible successor, in execution order.
	Child(c *State) ChildVerdict
	// Maximal is called when no successor of s was explored (every one
	// pruned, or none feasible): s terminates a maximal explored path.
	Maximal(s *State)
	// Stopped reports that the search should halt (streaming early stop).
	Stopped() bool
}

// ExploreOptions configures an Explorer beyond what the engine's Config
// (Strategy, ExploreParallelism, MaxStates, Interrupt) already fixes.
type ExploreOptions struct {
	// Pruner, when non-nil, selects committed exploration with the pruner's
	// decisions applied in canonical depth-first order.
	Pruner Pruner
	// Score maps a state to its priority under a scoring strategy (lower is
	// more urgent). Under parallel exploration it is called from worker
	// goroutines and must be safe for concurrent use with the Pruner's
	// (single-goroutine) mutations. When nil, the directed strategy falls
	// back to the CFG hop distance to the procedure's end node — a
	// shortest-path-first order for full symbolic execution.
	Score func(*State) int
	// CountOnly makes a free exploration count its terminal paths
	// (Stats.PathsExplored) without collecting them: Summary.Paths stays
	// empty. A session's seeding run explores only to record the memo trie
	// and reads none of the paths. Merged explorations (Config.MergeBound)
	// ignore it; sessions reject merging.
	CountOnly bool
}

// task is one node of the exploration task tree.
type task struct {
	state *State
	// status is the speculation claim protocol: taskNew -> taskClaimed (one
	// expander wins the CAS) -> taskDone (result fields published).
	status int32
	// dead marks a task whose subtree the committed walk pruned; workers
	// skip dead tasks instead of expanding them.
	dead int32

	// Result fields, written by the claiming expander and published with
	// status = taskDone (under the Explorer mutex).
	step     Step
	delta    core // engine core-counter delta attributable to this expansion
	aborted  bool // expansion was interrupted mid-step; step is not trustworthy
	children []*task
	path     *Path // free exploration: the collected path of a terminal task
}

const (
	taskNew int32 = iota
	taskClaimed
	taskDone
)

// Explorer drains an exploration frontier over one engine (and, under
// parallelism, its forks). Construct with NewExplorer, call Run once.
type Explorer struct {
	opts        ExploreOptions
	parallelism int
	engines     []*Engine // engines[0] is the caller's engine
	root        *task

	mu           sync.Mutex
	cond         *sync.Cond
	frontier     Frontier
	seq          uint64
	active       int // free mode: tasks popped but not yet fully processed
	stopped      bool
	intErr       error
	created      int // states created: initial state + feasible successors
	maxStatesHit bool
	coreStats    core // committed core counters (see coreOf)

	// State-merging counters (merge.go); zero without Config.MergeBound.
	merges      int
	mergedSaved int
	iteNodes    int

	summary *Summary
}

// NewExplorer prepares an exploration of e's procedure. The engine's Config
// fixes the strategy name and parallelism; both were validated when the
// engine was built. Under parallelism n, n-1 engine forks are created, each
// with its own constraint-backend assertion stack, all sharing e's prefix
// cache.
func NewExplorer(e *Engine, opts ExploreOptions) *Explorer {
	strat, err := strategyFor(e.config.Strategy)
	if err != nil {
		// Config.Strategy is validated in build(); reaching this means the
		// engine was constructed without New/NewPrepared.
		panic(err)
	}
	x := &Explorer{
		opts:        opts,
		parallelism: e.config.ResolvedExploreParallelism(),
		engines:     []*Engine{e},
	}
	if opts.Score == nil {
		end := e.Graph.End.ID
		x.opts.Score = func(s *State) int {
			if d := e.Graph.Dist(s.Node.ID, end); d >= 0 {
				return d
			}
			return int(^uint(0) >> 1)
		}
	}
	if e.config.Strategy == StrategyDirected {
		// Force the hop-distance analysis on this goroutine: worker
		// goroutines score states concurrently and must only read it.
		e.Graph.Dist(e.Graph.Begin.ID, e.Graph.End.ID)
	}
	if e.config.MergeBound != 0 {
		// Merged exploration is sequential: the merge queue replaces the
		// strategy frontier, and one engine threads one solver context
		// through the heap-ordered walk (merge.go).
		x.parallelism = 1
	}
	for i := 1; i < x.parallelism; i++ {
		fork, err := e.Fork()
		if err != nil {
			// Fork re-runs the backend construction that already succeeded
			// for e, with identical options; it cannot fail for a validated
			// config.
			panic(err)
		}
		x.engines = append(x.engines, fork)
	}
	x.cond = sync.NewCond(&x.mu)
	x.frontier = strat(x.opts.Score)
	return x
}

// Run performs the exploration and returns its summary. In committed mode
// the pruner emits paths itself, so only Summary.Stats is meaningful.
// Run must be called exactly once. Stats.Time is left to the caller.
func (x *Explorer) Run() *Summary {
	x.summary = &Summary{}
	primary := x.engines[0]
	before := coreOf(primary.stats)
	s0 := primary.InitialState()
	x.coreStats = coreOf(primary.stats).sub(before)
	x.created = 1
	x.root = &task{state: s0}

	switch {
	case primary.config.MergeBound != 0:
		x.runMerged()
	case x.opts.Pruner != nil:
		x.runCommitted()
	default:
		x.runFree()
	}

	// Propagate an interrupt observed on any fork to the caller's engine so
	// existing InterruptErr call sites see it.
	if x.intErr != nil && primary.interruptErr == nil {
		primary.interruptErr = x.intErr
	}
	x.summary.Stats = x.mergedStats()
	return x.summary
}

// --- free exploration (full symbolic execution) ------------------------------

func (x *Explorer) runFree() {
	x.push(x.root)
	if x.parallelism == 1 {
		x.freeWorker(x.engines[0])
	} else {
		var wg sync.WaitGroup
		for _, e := range x.engines {
			wg.Add(1)
			go func(e *Engine) {
				defer wg.Done()
				x.freeWorker(e)
			}(e)
		}
		wg.Wait()
		// Deterministic output under parallelism: assemble the collected
		// paths in canonical tree preorder, which equals the depth-first
		// emission order whatever interleaving produced them.
		x.assemble(x.root)
	}
}

// freeWorker drains the frontier until it is empty and no task is in flight
// (or the exploration stopped early).
func (x *Explorer) freeWorker(e *Engine) {
	for {
		x.mu.Lock()
		for {
			if x.stopped {
				x.mu.Unlock()
				return
			}
			if x.frontier.Len() > 0 {
				break
			}
			if x.active == 0 {
				x.mu.Unlock()
				return
			}
			x.cond.Wait()
		}
		it, _ := x.frontier.Pop()
		x.active++
		x.mu.Unlock()

		x.processFree(it.task, e)

		x.mu.Lock()
		x.active--
		if x.active == 0 || x.stopped {
			x.cond.Broadcast()
		}
		x.mu.Unlock()
	}
}

// processFree handles one popped task: collect it if terminal, expand and
// enqueue its successors otherwise. Mirrors the recursive runFrom loop the
// scheduler replaces: the MaxStates valve is polled before every expansion,
// and an interrupt stops the run within one step.
func (x *Explorer) processFree(t *task, e *Engine) {
	if x.overBudget() {
		return
	}
	if e.Terminal(t.state) {
		if x.opts.CountOnly {
			e.stats.PathsExplored++
			t.state = nil // nothing to assemble under parallelism either
			return
		}
		p := e.Collect(t.state)
		if x.parallelism == 1 {
			// Sequential emission follows the strategy's pop order (for the
			// default DFS strategy: identical to the recursive exploration).
			x.summary.Paths = append(x.summary.Paths, p)
		} else {
			t.path = &p
			t.state = nil // assemble only needs the collected path
		}
		return
	}
	before := coreOf(e.stats)
	step := e.Step(t.state)
	delta := coreOf(e.stats).sub(before)
	if e.interruptErr != nil {
		x.fail(e.interruptErr)
		return
	}
	kids := make([]*task, len(step.Feasible))
	items := make([]*Item, len(step.Feasible))
	x.mu.Lock()
	x.coreStats.add(delta)
	x.created += len(step.Feasible)
	for i, s := range step.Feasible {
		kids[i] = &task{state: s}
		x.seq++
		items[i] = &Item{State: s, Seq: x.seq, task: kids[i]}
	}
	if x.parallelism > 1 {
		t.children = kids // retained for the canonical assembly
		t.state = nil     // expanded; only the children matter now
	}
	x.frontier.Push(items...)
	x.cond.Broadcast()
	x.mu.Unlock()
}

// assemble appends the paths collected across the task tree in preorder.
func (x *Explorer) assemble(t *task) {
	if t.path != nil {
		x.summary.Paths = append(x.summary.Paths, *t.path)
	}
	for _, c := range t.children {
		x.assemble(c)
	}
}

// --- committed exploration (pruned / directed search) -------------------------

func (x *Explorer) runCommitted() {
	var wg sync.WaitGroup
	if x.parallelism > 1 {
		x.push(x.root)
		for _, e := range x.engines[1:] {
			wg.Add(1)
			go func(e *Engine) {
				defer wg.Done()
				x.specWorker(e)
			}(e)
		}
	}
	x.commit(x.root)
	x.mu.Lock()
	x.stopped = true
	x.cond.Broadcast()
	x.mu.Unlock()
	wg.Wait()
}

// commit is the committed walk: a depth-first traversal applying the
// pruner's decisions in canonical order, consuming expansion results that
// workers may have speculatively computed. It is a transliteration of the
// recursive directed search it replaces, so sequential runs are
// byte-identical — including the pruner's view of the exploration.
func (x *Explorer) commit(t *task) {
	p := x.opts.Pruner
	if p.Stopped() || x.interrupted() || x.overBudget() {
		return
	}
	if !p.Enter(t.state) {
		x.kill(t)
		return
	}
	step, ok := x.await(t)
	if !ok {
		// Expansion was aborted mid-step: the empty successor list does not
		// mean this path is maximal, so do not let the pruner collect it.
		return
	}
	p.Expanded(t.state, step)
	explored := false
	for _, c := range t.children {
		switch p.Child(c.state) {
		case ChildDescend:
			explored = true
			x.commit(c)
		case ChildEmit:
			explored = true
			x.kill(c)
		default:
			x.kill(c)
		}
	}
	if !explored {
		p.Maximal(t.state)
	}
	// The walk is past this subtree: release its states and expansion
	// results so peak memory tracks the committed frontier, not the whole
	// explored tree. Nobody can reach t anymore — its children were
	// committed or killed, workers skip done/dead tasks — but the children
	// array is nilled under the mutex because killLocked walks such arrays.
	x.mu.Lock()
	t.state = nil
	t.step = Step{}
	t.children = nil
	x.mu.Unlock()
}

// await returns t's expansion result, expanding inline on the caller's
// engine when no worker has claimed t, waiting for the worker otherwise.
func (x *Explorer) await(t *task) (Step, bool) {
	if atomic.CompareAndSwapInt32(&t.status, taskNew, taskClaimed) {
		x.expandTask(t, x.engines[0])
	} else {
		x.mu.Lock()
		for atomic.LoadInt32(&t.status) != taskDone {
			x.cond.Wait()
		}
		x.mu.Unlock()
	}
	x.mu.Lock()
	x.coreStats.add(t.delta) // only committed expansions count
	x.mu.Unlock()
	return t.step, !t.aborted
}

// specWorker speculatively expands frontier tasks, in strategy order, ahead
// of the committed walk. It exits when the walk finishes or the run stops.
func (x *Explorer) specWorker(e *Engine) {
	for {
		x.mu.Lock()
		var t *task
		for t == nil {
			if x.stopped {
				x.mu.Unlock()
				return
			}
			it, ok := x.frontier.Pop()
			if !ok {
				x.cond.Wait()
				continue
			}
			c := it.task
			if atomic.LoadInt32(&c.dead) == 1 {
				continue // pruned by the committed walk
			}
			if !atomic.CompareAndSwapInt32(&c.status, taskNew, taskClaimed) {
				continue // the walk claimed it inline
			}
			t = c
		}
		x.mu.Unlock()
		x.expandTask(t, e)
	}
}

// expandTask computes t's Step on engine e and publishes the result. In
// committed mode the successors also enter the frontier (unless t died in
// the meantime) so workers can keep speculating down the tree.
func (x *Explorer) expandTask(t *task, e *Engine) {
	before := coreOf(e.stats)
	step := e.Step(t.state)
	t.delta = coreOf(e.stats).sub(before)
	t.step = step
	if e.interruptErr != nil {
		t.aborted = true
	}
	kids := make([]*task, len(step.Feasible))
	for i, s := range step.Feasible {
		kids[i] = &task{state: s}
	}

	x.mu.Lock()
	t.children = kids
	x.created += len(step.Feasible) // speculative states count toward MaxStates
	if t.aborted && x.intErr == nil {
		x.intErr = e.interruptErr
	}
	if atomic.LoadInt32(&t.dead) == 1 {
		// Pruned while expanding: the children die with it, unseen.
		for _, c := range kids {
			atomic.StoreInt32(&c.dead, 1)
		}
	} else if x.parallelism > 1 {
		items := make([]*Item, len(kids))
		for i, c := range kids {
			x.seq++
			items[i] = &Item{State: c.state, Seq: x.seq, task: c}
		}
		x.frontier.Push(items...)
	}
	atomic.StoreInt32(&t.status, taskDone)
	x.cond.Broadcast()
	x.mu.Unlock()
}

// kill marks t's subtree dead so speculation stops chasing it.
func (x *Explorer) kill(t *task) {
	x.mu.Lock()
	x.killLocked(t)
	x.mu.Unlock()
}

func (x *Explorer) killLocked(t *task) {
	atomic.StoreInt32(&t.dead, 1)
	for _, c := range t.children {
		x.killLocked(c)
	}
}

// --- shared plumbing ----------------------------------------------------------

// push enqueues a task as a frontier item.
func (x *Explorer) push(t *task) {
	x.mu.Lock()
	x.seq++
	x.frontier.Push(&Item{State: t.state, Seq: x.seq, task: t})
	x.cond.Broadcast()
	x.mu.Unlock()
}

// overBudget reports (and records) that the MaxStates safety valve tripped.
// Under parallel exploration speculative expansions count toward the valve:
// it bounds the work actually performed, whatever order performed it.
func (x *Explorer) overBudget() bool {
	max := x.engines[0].config.MaxStates
	if max <= 0 {
		return false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.created >= max {
		x.maxStatesHit = true
		if !x.stopped {
			x.stopped = true
			x.cond.Broadcast()
		}
		return true
	}
	return false
}

func (x *Explorer) interrupted() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.intErr != nil
}

// fail records the first interrupt and stops the run.
func (x *Explorer) fail(err error) {
	x.mu.Lock()
	if x.intErr == nil {
		x.intErr = err
	}
	x.stopped = true
	x.cond.Broadcast()
	x.mu.Unlock()
}

// mergedStats joins the per-worker counters at the end of a run. The core
// exploration counters (states, branches, depth-bound hits, model hits) are
// the committed ones — deterministic for a given analysis at every strategy
// and parallelism level. The solver counters are summed across the worker
// backends; their split between cache hits, model reuses and full solves
// legitimately varies with speculation and interleaving.
func (x *Explorer) mergedStats() Stats {
	st := Stats{
		StatesExplored:     x.coreStats.states,
		InfeasibleBranches: x.coreStats.infeasible,
		DepthBoundHits:     x.coreStats.depthHits,
		ModelHits:          x.coreStats.modelHits,
	}
	st.MaxStatesHit = x.maxStatesHit
	st.Merges = x.merges
	st.MergedStatesSaved = x.mergedSaved
	st.IteNodes = x.iteNodes
	var solver constraint.Stats
	for _, e := range x.engines {
		st.PathsExplored += e.stats.PathsExplored
		st.MemoHits += e.stats.MemoHits
		st.MemoStatesReplayed += e.stats.MemoStatesReplayed
		st.MemoStatesLive += e.stats.MemoStatesLive
		solver.Add(e.solverStats())
	}
	st.Solver = solver
	return st
}

// core holds the deterministic exploration counters of Stats: the ones a
// committed exploration attributes to individual expansions.
type core struct {
	states, infeasible, depthHits, modelHits int
}

// coreOf projects the core counters of s.
func coreOf(s Stats) core {
	return core{s.StatesExplored, s.InfeasibleBranches, s.DepthBoundHits, s.ModelHits}
}

// sub returns c - d, counter by counter.
func (c core) sub(d core) core {
	return core{c.states - d.states, c.infeasible - d.infeasible, c.depthHits - d.depthHits, c.modelHits - d.modelHits}
}

func (c *core) add(d core) {
	c.states += d.states
	c.infeasible += d.infeasible
	c.depthHits += d.depthHits
	c.modelHits += d.modelHits
}
