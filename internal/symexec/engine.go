package symexec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"dise/internal/cfg"
	"dise/internal/constraint"
	"dise/internal/lang/ast"
	"dise/internal/lang/token"
	"dise/internal/lang/types"
	"dise/internal/memo"
	"dise/internal/solver"
	"dise/internal/sym"
)

// Config tunes an Engine.
type Config struct {
	// DepthBound limits the number of CFG nodes executed on a single path;
	// paths that exceed it are abandoned (counted in Stats.DepthBoundHits),
	// guaranteeing termination for loops (paper §2.1). Zero means the
	// default of 1000.
	DepthBound int
	// MaxStates aborts the whole run after this many states, as a safety
	// valve for runaway exploration. Zero means no limit.
	MaxStates int
	// IntDomain is the solver domain for integer symbolic inputs. The zero
	// value selects solver.DefaultDomain (non-negative, Choco-like).
	IntDomain solver.Interval
	// ConcreteGlobals makes global variables take their declared constant
	// initializers instead of fresh symbolic values. By default globals are
	// symbolic inputs, matching the paper's SPF setup where fields are
	// symbolic (§5.2).
	ConcreteGlobals bool
	// SolverOptions configures the constraint solver.
	SolverOptions solver.Options
	// SolverBackend selects the constraint backend by registry name
	// (internal/constraint). Empty selects the default incremental interval
	// backend.
	SolverBackend string
	// SolverSMT configures the external solver session of the "smtlib"
	// backend (binary path, per-check deadline, restart budget, circuit
	// breaker); ignored by backends that never leave the process.
	SolverSMT constraint.SMTOptions
	// SolverPortfolio selects the member backends of the "portfolio"
	// meta-backend by registry name; empty selects its default member set.
	SolverPortfolio []string
	// SolverCache, when non-nil, is a shared prefix-result cache: engines
	// given the same cache (e.g. the worker pool of a batch analysis over
	// variants of one base program) reuse each other's solved path-condition
	// prefixes.
	SolverCache *constraint.PrefixCache
	// Interrupt, when non-nil, is polled once per executed CFG node. A
	// non-nil return aborts the exploration within one step: Step produces no
	// successors, search loops unwind without collecting partial paths, and
	// the error is available from InterruptErr. This is how context
	// cancellation reaches the innermost search loop.
	Interrupt func() error
	// Memo, when non-nil, is the session-persistent execution-tree trie of a
	// version-chain session (internal/memo): Step consults it before calling
	// the constraint backend — a branch whose recorded verdict matches is
	// decided with no Backend.Check call at all (counted in Stats.MemoHits) —
	// and records the verdicts of live solves into it for the next version.
	// The trie must already be keyed in this engine's version space (the
	// session's Rekey pass); engines sharing a run (forks) share the trie.
	Memo *memo.Tree
	// Strategy selects the exploration order of the scheduler by name
	// ("dfs", "bfs", "directed"; see frontier.go). Empty selects DFS, the
	// classic depth-first order. Unknown names fail engine construction.
	Strategy string
	// ExploreParallelism is the number of workers draining one exploration's
	// frontier (intra-query parallelism). Each worker owns an engine fork
	// with a private solver assertion stack; all forks share one prefix
	// cache. Zero or one means sequential exploration; negative values and
	// values above MaxExploreParallelism fail engine construction (each
	// worker is a live solver context, so the count must stay sane).
	ExploreParallelism int
	// MergeBound enables bounded state merging (merge.go): at CFG join
	// points, sibling states whose environments differ only in value
	// bindings are fused into one state whose environment maps each
	// differing name to a canonical sym.ITE over the siblings' path-suffix
	// guards, and whose path condition factors the suffixes through a
	// disjunction. Zero disables merging (the default); MergeUnbounded (-1)
	// merges every mergeable sibling group whole; values >= 2 cap how many
	// siblings fuse into one state per merge. 1 and values below
	// MergeUnbounded fail engine construction, as does combining merging
	// with a memo trie (Config.Memo): recorded verdicts are keyed by
	// per-path conjunctions, which merging replaces with factored
	// disjunctions, so sessions reject the mode until merge-aware rekeying
	// exists.
	MergeBound int
	// MergeBudget caps the number of merge operations performed in one
	// exploration when merging is enabled; once spent, remaining states
	// pass through joins unmerged. Zero means no cap.
	MergeBudget int
}

// MergeUnbounded as Config.MergeBound merges every mergeable sibling group
// at a join whole, however many states arrive.
const MergeUnbounded = -1

// MaxExploreParallelism bounds Config.ExploreParallelism: workers beyond any
// plausible core count only add coordination overhead and solver-context
// memory.
const MaxExploreParallelism = 256

// ResolvedStrategy returns the strategy name the scheduler will actually
// use: the configured one, or the DFS default for the empty string.
func (c Config) ResolvedStrategy() string {
	if c.Strategy == "" {
		return StrategyDFS
	}
	return c.Strategy
}

// ResolvedExploreParallelism returns the worker count the scheduler will
// actually run: the configured one, with 0 (and 1) meaning sequential.
func (c Config) ResolvedExploreParallelism() int {
	if c.ExploreParallelism < 1 {
		return 1
	}
	return c.ExploreParallelism
}

// Stats are the cost counters reported in the paper's Table 2: states
// explored, time, and the number of path conditions (len(Summary.Paths)).
type Stats struct {
	StatesExplored     int
	PathsExplored      int
	InfeasibleBranches int
	DepthBoundHits     int
	// ModelHits counts branch feasibility decisions answered by the
	// parent state's cached satisfying model instead of a solver call.
	ModelHits    int
	MaxStatesHit bool
	Time         time.Duration
	// Solver is the backend's counter snapshot, plus Solver.CheckPanics:
	// the Backend.Check calls that panicked and were contained (the engine
	// recovers, reports the check as Unknown, and keeps exploring). A sound
	// backend never panics; that counter is the audit trail for a faulty
	// one.
	Solver constraint.Stats

	// Memo counters of a version-chain session run (zero without Config.Memo).
	// Like the solver counters they include speculative work, so their split
	// may vary with parallelism; the exploration outcome does not.
	//
	// MemoHits counts branch feasibility decisions answered by a recorded
	// verdict from the execution-tree trie — decisions that made no
	// constraint.Backend.Check call at all.
	MemoHits int
	// MemoStatesReplayed counts state expansions served on a matched trie
	// node carrying recorded facts; MemoStatesLive counts expansions that
	// recorded fresh facts (unmatched, wiped, or never-recorded nodes).
	MemoStatesReplayed int
	MemoStatesLive     int

	// State-merging counters of a run with Config.MergeBound set (zero
	// otherwise).
	//
	// Merges counts merge operations: sibling groups fused at a join.
	Merges int
	// MergedStatesSaved counts states absorbed by merges — for each merge
	// of k siblings, k-1 states that were not separately explored.
	MergedStatesSaved int
	// IteNodes counts the distinct sym.ITE nodes interned during the run
	// (approximate when other runs intern concurrently).
	IteNodes int
}

// Engine symbolically executes one procedure.
//
// The engine threads ONE constraint-solver context through the states it
// expands: the backend's assertion stack always mirrors the path condition
// of the state being expanded (one frame per branch constraint),
// synchronized in Step by diffing against the previous state's path
// condition — push when descending into a branch, pop when moving to a
// sibling or an ancestor. States expanded consecutively therefore share all
// solver state attached to their common prefix (propagation snapshots,
// cached verdicts, witness models), which is what makes branch feasibility
// checks incremental instead of from-scratch re-solves of the whole path
// condition. An engine serves one goroutine; parallel exploration runs one
// engine fork per worker (Fork), each with its own solver context, sharing
// a prefix cache.
type Engine struct {
	Prog    *ast.Program
	Proc    *ast.Procedure
	Graph   *cfg.Graph
	Backend constraint.Backend

	config  Config
	domains map[string]solver.Interval
	// lows is the witness of the empty path condition: the least element of
	// every input domain. Every initial state starts from it; forks share it.
	lows         *solver.Model
	stats        Stats
	depthBound   int
	interruptErr error
	// memoKeys maps this graph's node IDs to their stable keys, resolved at
	// build time when Config.Memo is set (read-only thereafter; forks share
	// it).
	memoKeys map[int]string
	// memoGen is the trie's step generation captured when the initial state
	// is built; every trie node this run touches is stamped with it, which
	// is what lets the trie's budget enforcement tell replayed/live nodes
	// from retained-but-unmatched ones.
	memoGen uint64
	// stack mirrors the constraints currently asserted on the Backend, one
	// frame per path-condition conjunct.
	stack []sym.Expr
	// pcScratch is the reusable buffer syncPC materializes a state's
	// path-condition list into; it keeps stack syncing allocation-free in
	// steady state.
	pcScratch []sym.Expr
}

// New type-checks the program, builds the CFG of procedure procName, and
// returns an engine ready to run.
func New(prog *ast.Program, procName string, config Config) (*Engine, error) {
	if _, err := types.Check(prog); err != nil {
		return nil, fmt.Errorf("symexec: %w", err)
	}
	proc := prog.Proc(procName)
	if proc == nil {
		return nil, fmt.Errorf("symexec: procedure %q not found", procName)
	}
	return build(prog, proc, nil, config)
}

// NewPrepared builds an engine from a program that the caller has already
// type-checked and a CFG already built for proc. It skips the type check and
// CFG construction of New — the point of the facade's parse/CFG cache — but
// still rejects procedures with unexpanded calls. The graph may be shared
// across engines provided its analyses were precomputed (cfg.Precompute).
func NewPrepared(prog *ast.Program, proc *ast.Procedure, g *cfg.Graph, config Config) (*Engine, error) {
	return build(prog, proc, g, config)
}

// CheckNoCalls rejects procedures containing unexpanded calls: the engine
// (and cfg.Build) operate on single-procedure bodies; callers must expand
// calls with the inline package first.
func CheckNoCalls(proc *ast.Procedure) error {
	var callErr error
	ast.Walk(proc.Body.Stmts, func(s ast.Stmt) {
		if c, ok := s.(*ast.Call); ok && callErr == nil {
			callErr = fmt.Errorf("symexec: procedure %q calls %q; expand calls with the inline package first", proc.Name, c.Callee)
		}
	})
	return callErr
}

func build(prog *ast.Program, proc *ast.Procedure, g *cfg.Graph, config Config) (*Engine, error) {
	if err := CheckNoCalls(proc); err != nil {
		return nil, err
	}
	if _, err := strategyFor(config.Strategy); err != nil {
		return nil, err
	}
	if config.ExploreParallelism < 0 || config.ExploreParallelism > MaxExploreParallelism {
		return nil, fmt.Errorf("symexec: explore parallelism %d out of range [0, %d] (0 or 1 = sequential)",
			config.ExploreParallelism, MaxExploreParallelism)
	}
	if config.MergeBound != 0 {
		if config.MergeBound == 1 || config.MergeBound < MergeUnbounded {
			return nil, fmt.Errorf("symexec: merge bound %d out of range (0 = off, %d = unbounded, >= 2 = bounded)",
				config.MergeBound, MergeUnbounded)
		}
		if config.Memo != nil {
			return nil, fmt.Errorf("symexec: state merging is incompatible with a memoized session trie: recorded verdicts are keyed by per-path conjunctions, which merging replaces with factored disjunctions")
		}
		if config.MergeBudget < 0 {
			return nil, fmt.Errorf("symexec: merge budget %d is negative (0 = unlimited)", config.MergeBudget)
		}
	}
	if config.ExploreParallelism > 1 && config.SolverCache == nil {
		// Parallel exploration forks the engine, one solver context per
		// worker; give the forks a common prefix cache so they reuse each
		// other's solved prefixes even when the caller did not provide one.
		config.SolverCache = constraint.NewPrefixCache(0)
	}
	if g == nil {
		g = cfg.Build(proc)
	}
	e := &Engine{
		Prog:    prog,
		Proc:    proc,
		Graph:   g,
		config:  config,
		domains: map[string]solver.Interval{},
	}
	e.depthBound = config.DepthBound
	if e.depthBound == 0 {
		e.depthBound = 1000
	}
	if config.Memo != nil {
		// Resolve the stable keys here, on the construction goroutine, so
		// forks (and the graph cache) only ever read them.
		e.memoKeys = g.StableKeys()
	}
	intDomain := config.IntDomain
	if intDomain == (solver.Interval{}) {
		intDomain = solver.DefaultDomain
	}
	// Symbolic inputs: parameters always; globals unless ConcreteGlobals.
	for _, p := range proc.Params {
		if p.Type == ast.TypeBool {
			e.domains[symbolName(p.Name)] = solver.BoolDomain
		} else {
			e.domains[symbolName(p.Name)] = intDomain
		}
	}
	if !config.ConcreteGlobals {
		for _, gl := range prog.Globals {
			if gl.Type == ast.TypeBool {
				e.domains[symbolName(gl.Name)] = solver.BoolDomain
			} else {
				e.domains[symbolName(gl.Name)] = intDomain
			}
		}
	}
	lows := make(map[string]int64, len(e.domains))
	for name, d := range e.domains {
		lows[name] = d.Lo
	}
	e.lows = solver.NewModel(solver.NewIndex(e.domains), lows)
	backend, err := constraint.New(config.SolverBackend, constraint.Options{
		Domains:    e.domains,
		NodeBudget: config.SolverOptions.NodeBudget,
		Interrupt:  config.SolverOptions.Interrupt,
		Cache:      config.SolverCache,
		SMT:        config.SolverSMT,
		Portfolio:  config.SolverPortfolio,
	})
	if err != nil {
		return nil, fmt.Errorf("symexec: %w", err)
	}
	e.Backend = backend
	return e, nil
}

// Fork returns a new engine over the same procedure, graph and
// configuration, with a fresh constraint-backend context (its own assertion
// stack) and zeroed counters. The graph, program and domains are shared —
// they are read-only after construction — and the fork's backend shares the
// original's prefix cache when one is configured. Parallel exploration runs
// one fork per worker.
func (e *Engine) Fork() (*Engine, error) {
	ne := &Engine{
		Prog:       e.Prog,
		Proc:       e.Proc,
		Graph:      e.Graph,
		config:     e.config,
		domains:    e.domains,
		lows:       e.lows,
		depthBound: e.depthBound,
		memoKeys:   e.memoKeys,
	}
	backend, err := constraint.New(e.config.SolverBackend, constraint.Options{
		Domains:    e.domains,
		NodeBudget: e.config.SolverOptions.NodeBudget,
		Interrupt:  e.config.SolverOptions.Interrupt,
		Cache:      e.config.SolverCache,
		SMT:        e.config.SolverSMT,
		Portfolio:  e.config.SolverPortfolio,
	})
	if err != nil {
		return nil, fmt.Errorf("symexec: %w", err)
	}
	ne.Backend = backend
	return ne, nil
}

// MemoSignature digests everything a recorded solver verdict's validity
// depends on besides the path condition itself: the symbolic input domains,
// the initial environment (parameters and globals, concrete or symbolic),
// the backend the verdicts came from (backends may disagree, e.g. wraparound
// vs unbounded arithmetic), and the node budget (which decides where
// Unknown — treated as unsat — cuts in). A version-chain session compares
// the signatures of consecutive versions and invalidates its whole trie on
// any difference, e.g. an edit that adds a parameter or re-types a global.
func (e *Engine) MemoSignature() string {
	var b strings.Builder
	names := make([]string, 0, len(e.domains))
	for n := range e.domains {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := e.domains[n]
		fmt.Fprintf(&b, "%s∈[%d,%d];", n, d.Lo, d.Hi)
	}
	b.WriteString("|env:")
	for _, p := range e.Proc.Params {
		fmt.Fprintf(&b, "%s=%s;", p.Name, symbolName(p.Name))
	}
	for _, gl := range e.Prog.Globals {
		if e.config.ConcreteGlobals {
			fmt.Fprintf(&b, "%s:=%s;", gl.Name, gl.Init.String())
		} else {
			fmt.Fprintf(&b, "%s=%s;", gl.Name, symbolName(gl.Name))
		}
	}
	fmt.Fprintf(&b, "|backend=%s budget=%d", e.config.SolverBackend, e.config.SolverOptions.NodeBudget)
	return b.String()
}

// symbolName maps a program variable to its symbolic input name, following
// the paper's convention (§2.1): variable x gets symbol X, PedalPos stays
// PedalPos.
func symbolName(varName string) string {
	if varName == "" {
		return varName
	}
	c := varName[0]
	if c >= 'a' && c <= 'z' {
		return string(c-'a'+'A') + varName[1:]
	}
	return varName
}

// SymbolName exposes the symbol naming convention to other packages.
func SymbolName(varName string) string { return symbolName(varName) }

// Domains returns the solver domains of the symbolic inputs.
func (e *Engine) Domains() map[string]solver.Interval {
	out := make(map[string]solver.Interval, len(e.domains))
	for k, v := range e.domains {
		out[k] = v
	}
	return out
}

// Stats returns a snapshot of the engine's counters, including solver stats.
func (e *Engine) Stats() Stats {
	st := e.stats
	st.Solver = e.solverStats()
	return st
}

// solverStats snapshots the backend's counters together with the Check
// panics the engine contained, which the backend cannot count itself.
func (e *Engine) solverStats() constraint.Stats {
	s := e.Backend.Stats()
	s.CheckPanics = e.stats.Solver.CheckPanics
	return s
}

// ResetStats zeroes all counters (engine and solver).
func (e *Engine) ResetStats() {
	e.stats = Stats{}
	e.Backend.ResetStats()
}

// InterruptErr returns the error that aborted the exploration, or nil. It is
// set the first time Config.Interrupt returns non-nil; once set, Step
// produces no further successors.
func (e *Engine) InterruptErr() error { return e.interruptErr }

// BudgetExhausted reports whether the MaxStates safety valve has tripped,
// recording the event in the stats. Search loops (full and directed) consult
// it before expanding a state.
func (e *Engine) BudgetExhausted() bool {
	if e.config.MaxStates > 0 && e.stats.StatesExplored >= e.config.MaxStates {
		e.stats.MaxStatesHit = true
		return true
	}
	return false
}

// DepthBound returns the effective path depth bound.
func (e *Engine) DepthBound() int { return e.depthBound }

// syncStack aligns the backend's assertion stack with the path condition
// pc: it pops frames down to the longest common prefix, then pushes one
// frame per remaining conjunct. Under the default depth-first strategy,
// sibling states share their PC prefix (path conditions are extended by
// append-on-fork), so a step to a sibling pops one frame and pushes one,
// and a descent pushes exactly one — the push/pop discipline of incremental
// solving. Every other exploration order (BFS, directed priority, a
// parallel worker picking up an arbitrary frontier state) remains correct,
// just with more stack traffic; this PC-diff is what lets the scheduler
// expand states in any order.
func (e *Engine) syncStack(pc []sym.Expr) {
	n := 0
	//diselint:ignore interruptloop bounded: advances one frame per iteration, capped by min(len(stack), len(pc))
	for n < len(e.stack) && n < len(pc) && sameExpr(e.stack[n], pc[n]) {
		n++
	}
	//diselint:ignore interruptloop bounded: pops one frame per iteration, capped by len(stack)
	for len(e.stack) > n {
		e.Backend.Pop()
		e.stack = e.stack[:len(e.stack)-1]
	}
	for _, c := range pc[len(e.stack):] {
		e.Backend.Push()
		e.Backend.Assert(c)
		e.stack = append(e.stack, c)
	}
}

// sameExpr compares path-condition conjuncts. Expressions built by the
// smart constructors are hash-consed, so pointer equality decides both ways
// for them; sym.Equal's structural walk only ever runs for un-interned
// literals from test code.
func sameExpr(a, b sym.Expr) bool {
	return a == b || sym.Equal(a, b)
}

// syncPC aligns the backend's assertion stack with the path condition of s,
// materializing the prefix-shared list into the engine's scratch buffer
// (no allocation in steady state).
func (e *Engine) syncPC(s *State) {
	e.pcScratch = s.PC.AppendTo(e.pcScratch[:0])
	e.syncStack(e.pcScratch)
}

// checkBranch decides PC ∧ c where PC is the currently synced stack, using
// a transient frame so the stack is unchanged on return.
func (e *Engine) checkBranch(c sym.Expr) constraint.Result {
	e.Backend.Push()
	e.Backend.Assert(c)
	res := e.safeCheck()
	e.Backend.Pop()
	return res
}

// safeCheck contains a panicking Backend.Check: the engine recovers, counts
// the event (Stats.Solver.CheckPanics) and treats the check as Unknown, so
// a faulty backend degrades an exploration's precision instead of tearing
// down the whole analysis (or, in the service, the process). Only Check is
// contained — a panic in Push/Pop/Assert indicates a stack-discipline bug
// in the engine itself and must stay loud.
func (e *Engine) safeCheck() (res constraint.Result) {
	defer func() {
		if r := recover(); r != nil {
			e.stats.Solver.CheckPanics++
			res = constraint.Result{Unknown: true}
		}
	}()
	return e.Backend.Check()
}

// CheckPC decides an arbitrary path condition against the engine's input
// domains, syncing the backend stack to it, with the same prefix reuse as
// the exploration itself. Tests use it to re-solve reported path conditions
// independently of the witnesses the exploration kept.
func (e *Engine) CheckPC(pc []sym.Expr) constraint.Result {
	e.syncStack(pc)
	return e.safeCheck()
}

// InitialState builds the state at the begin node: parameters and (by
// default) globals bound to fresh symbolic values, path condition true, and
// the least element of every input domain as its witness.
func (e *Engine) InitialState() *State {
	m := map[string]sym.Expr{}
	for _, p := range e.Proc.Params {
		m[p.Name] = sym.V(symbolName(p.Name))
	}
	for _, gl := range e.Prog.Globals {
		if e.config.ConcreteGlobals {
			switch init := gl.Init.(type) {
			case *ast.IntLit:
				m[gl.Name] = sym.Int(init.Value)
			case *ast.BoolLit:
				m[gl.Name] = sym.Bool(init.Value)
			}
		} else {
			m[gl.Name] = sym.V(symbolName(gl.Name))
		}
	}
	env := NewEnv(m)
	// Locals start undefined; the type checker guarantees they are assigned
	// before use on every executable path of well-formed artifacts.
	e.stats.StatesExplored++
	s := &State{Node: e.Graph.Begin, Env: env, PC: nil, Trace: nil, model: e.lows}
	if e.config.Memo != nil {
		e.memoGen = e.config.Memo.Gen()
		s.memo = e.config.Memo.Root(e.memoKeys[e.Graph.Begin.ID])
	}
	return s
}

// Step is the result of executing one CFG node symbolically.
type Step struct {
	// Feasible lists the feasible successor states, true-branch first.
	Feasible []*State
	// InfeasibleTargets lists CFG nodes that are branch targets whose branch
	// constraint was unsatisfiable. Directed search needs these: the target
	// instruction was reached by the executor even though no state continues
	// through it (in SPF the branch target is touched before the solver
	// rejects the choice), so DiSE marks it explored rather than letting an
	// unreachable-in-context affected node attract further exploration.
	InfeasibleTargets []*cfg.Node
}

// Successors executes the node of s and returns the feasible successor
// states, true-branch first. It returns nil when s is at the end node or the
// error sink (terminal states) or when the depth bound is exceeded.
func (e *Engine) Successors(s *State) []*State {
	return e.Step(s).Feasible
}

// Step executes the node of s, reporting both feasible successors and
// infeasible branch targets. After an interrupt (Config.Interrupt returned
// non-nil) it produces no successors, so any search loop built on it unwinds
// within one step.
func (e *Engine) Step(s *State) Step {
	if e.interruptErr != nil {
		return Step{}
	}
	if e.config.Interrupt != nil {
		if err := e.config.Interrupt(); err != nil {
			e.interruptErr = err
			return Step{}
		}
	}
	n := s.Node
	switch n.Kind {
	case cfg.KindEnd, cfg.KindError:
		return Step{}
	}
	if s.Depth >= e.depthBound {
		e.stats.DepthBoundHits++
		return Step{}
	}

	rec := e.memoEnter(s)
	var out Step
	// Branch arms and path-condition contributions of out.Feasible, tracked
	// only when rec != nil (the chain invariant's induction data). A node has
	// at most two successors, so they fit the stack arrays.
	var viaBuf [2]int8
	var viaCondBuf [2]sym.Expr
	vias, viaConds := viaBuf[:0], viaCondBuf[:0]
	switch n.Kind {
	case cfg.KindBegin, cfg.KindNop:
		succ := s.fork(n.Succs[0].To)
		succ.appendTraceIfStmt(n)
		out.Feasible = append(out.Feasible, succ)
		if rec != nil {
			vias, viaConds = append(vias, memo.ViaFlow), append(viaConds, nil)
		}
	case cfg.KindWrite:
		a := n.Stmt.(*ast.Assign)
		val := e.evalExpr(a.Value, s.Env)
		succ := s.fork(n.Succs[0].To)
		succ.Env = succ.Env.Set(a.Name, val)
		succ.appendTraceIfStmt(n)
		out.Feasible = append(out.Feasible, succ)
		if rec != nil {
			vias, viaConds = append(vias, memo.ViaFlow), append(viaConds, nil)
		}
	case cfg.KindCond:
		cond := e.evalExpr(n.Cond, s.Env)
		out.Feasible = make([]*State, 0, 2)
		for arm, branch := range []struct {
			c  sym.Expr
			to *cfg.Node
		}{
			{cond, n.TrueSucc()},
			{sym.NotE(cond), n.FalseSucc()},
		} {
			via := int8(arm) // memo.ViaTrue / memo.ViaFalse
			switch c := branch.c.(type) {
			case *sym.BoolConst:
				if !c.V {
					// Branch statically impossible (the condition folded to a
					// constant under this path's environment). Report the
					// target as infeasible, like a solver-refuted branch, so
					// the directed search marks it explored instead of
					// chasing it through unaffected variations.
					out.InfeasibleTargets = append(out.InfeasibleTargets, branch.to)
					continue
				}
				succ := s.fork(branch.to)
				succ.appendTraceIfStmt(n)
				if branch.to.Kind == cfg.KindError {
					succ.Err = true
				}
				out.Feasible = append(out.Feasible, succ)
				if rec != nil {
					// A folded branch appends no conjunct: nil contribution.
					vias, viaConds = append(vias, via), append(viaConds, nil)
				}
			default:
				var model *solver.Model
				if s.model != nil {
					if v, err := solver.EvalInt01(c, s.model); err == nil && v != 0 {
						// The parent's witness already satisfies the branch
						// constraint: PC ∧ c is satisfiable without solving.
						model = s.model
						e.stats.ModelHits++
					}
				}
				if model == nil && rec != nil {
					// Memo replay: a previous version's run decided this
					// exact conjunction (the chain invariant guarantees the
					// node's recorded facts share this state's path
					// condition; structural equality matches the constraint),
					// so its verdict — and, for Sat, its deterministic
					// witness — stands in for the backend with no Check call
					// at all. The parent-model fast path above runs first,
					// exactly as in a cold run, so the core counters stay
					// byte-identical.
					if v, ok := rec.Lookup(branch.c); ok {
						e.stats.MemoHits++
						if !v.Sat {
							e.stats.InfeasibleBranches++
							out.InfeasibleTargets = append(out.InfeasibleTargets, branch.to)
							continue
						}
						model = v.Model
					}
				}
				if model == nil {
					// Align the backend's assertion stack with this state's
					// path condition (pop back to the shared prefix, push the
					// rest), then decide PC ∧ c in a transient frame. The
					// feasible branch's constraint is re-pushed when the
					// search descends into it; the backend's prefix machinery
					// makes that re-push recall this verdict instead of
					// re-solving.
					e.syncPC(s)
					res := e.checkBranch(branch.c)
					if rec != nil && !res.Unknown {
						// Unknown is budget- and interrupt-dependent; only
						// definitive verdicts become facts of the trie.
						rec.Record(branch.c, res.Sat, res.Model)
					}
					if !res.Sat {
						e.stats.InfeasibleBranches++
						out.InfeasibleTargets = append(out.InfeasibleTargets, branch.to)
						continue
					}
					model = res.Model
				}
				succ := s.fork(branch.to)
				succ.PC = succ.PC.Append(branch.c)
				succ.model = model
				succ.appendTraceIfStmt(n)
				if branch.to.Kind == cfg.KindError {
					succ.Err = true
				}
				out.Feasible = append(out.Feasible, succ)
				if rec != nil {
					vias, viaConds = append(vias, via), append(viaConds, branch.c)
				}
			}
		}
	default:
		panic(fmt.Sprintf("symexec: cannot execute node %v", n))
	}
	if rec != nil {
		e.memoLink(rec, out.Feasible, vias, viaConds)
	}
	e.stats.StatesExplored += len(out.Feasible)
	return out
}

// memoEnter resolves the memo-trie node of a state about to be expanded.
// The node's identity (stable key) is re-learned on divergence — e.g. an
// inserted statement shifted the walk's alignment — but never gates replay:
// data validity rests entirely on the chain invariant (internal/memo), which
// memoLink enforces when children are attached.
func (e *Engine) memoEnter(s *State) *memo.Node {
	rec := s.memo
	if rec == nil {
		return nil
	}
	rec.Key = e.memoKeys[s.Node.ID]
	rec.Touch(e.memoGen)
	if rec.Expanded {
		e.stats.MemoStatesReplayed++
	} else {
		e.stats.MemoStatesLive++
	}
	return rec
}

// memoLink attaches trie nodes to the successors of an expansion. A recorded
// child is reused only when both its branch arm and its path-condition
// contribution match the successor's (the chain invariant's induction step:
// matching by arm keeps a diamond-shaped join from inheriting the other
// arm's context, matching by contribution keeps recorded facts bound to
// their exact conjunction); otherwise the successor gets a fresh node.
// Recorded children the expansion did not re-match are retained behind the
// attached ones: their conjunctions simply do not occur in this version, but
// a later version may produce them again — most commonly when an edit is
// reverted, the dominant pattern of a version chain revisiting behaviors.
func (e *Engine) memoLink(rec *memo.Node, feasible []*State, vias []int8, viaConds []sym.Expr) {
	succs := make([]*memo.Node, 0, len(feasible)+len(rec.Succs))
	for i, st := range feasible {
		c := rec.Child(vias[i], viaConds[i])
		if c == nil {
			c = &memo.Node{Key: e.memoKeys[st.Node.ID], Via: vias[i], ViaCond: viaConds[i]}
		}
		c.Touch(e.memoGen)
		succs = append(succs, c)
		st.memo = c
	}
	attached := succs[:len(feasible)] // at most two: a conditional's arms
	for _, c := range rec.Succs {
		if c != nil && !slices.Contains(attached, c) {
			succs = append(succs, c)
		}
	}
	rec.Succs = succs
	rec.Expanded = true
}

// appendTraceIfStmt records the executed node in the successor's trace when
// it corresponds to a source statement: one list cell on top of the trace
// the successor shares with its parent and siblings.
func (s *State) appendTraceIfStmt(n *cfg.Node) {
	switch n.Kind {
	case cfg.KindCond, cfg.KindWrite, cfg.KindNop:
		s.Trace = s.Trace.Append(n.ID)
	}
}

// Terminal reports whether s completed a path (end node or error sink).
func (e *Engine) Terminal(s *State) bool {
	return s.Node.Kind == cfg.KindEnd || s.Node.Kind == cfg.KindError
}

// Collect converts a terminal state into a Path record — the one place the
// shared-tail path-condition and trace lists become exact-size slices. The
// persistent environment and the state's witness are shared as they are.
func (e *Engine) Collect(s *State) Path {
	e.stats.PathsExplored++
	pc := s.PC.Slice()
	return Path{
		PC:       pc,
		PCString: sym.Conjoin(pc),
		Env:      s.Env,
		Trace:    s.Trace.Slice(),
		Cover:    s.Cover,
		Err:      s.Err || s.Node.Kind == cfg.KindError,
		Witness:  s.model,
	}
}

// RunFull performs full (traditional) symbolic execution: every feasible
// path up to the depth bound, explored by the scheduler in the configured
// strategy order (depth-first by default) with the configured intra-query
// parallelism. This is the "Full Symbc" control technique of the paper's
// evaluation. The path set is the same for every strategy and parallelism
// level; sequential runs emit paths in strategy order, parallel runs in
// canonical tree order.
func (e *Engine) RunFull() *Summary {
	start := time.Now()
	summary := NewExplorer(e, ExploreOptions{}).Run()
	summary.Stats.Time = time.Since(start)
	e.stats.Time = summary.Stats.Time
	return summary
}

// evalExpr maps an AST expression to a symbolic expression under env, using
// the smart constructors so constants fold as execution proceeds.
func (e *Engine) evalExpr(x ast.Expr, env Env) sym.Expr {
	switch x := x.(type) {
	case *ast.IntLit:
		return sym.Int(x.Value)
	case *ast.BoolLit:
		return sym.Bool(x.Value)
	case *ast.Ident:
		if v, ok := env.Get(x.Name); ok {
			return v
		}
		// Reading an unassigned local: treat as a fresh symbol so execution
		// can proceed; the type checker flags genuinely undefined names.
		return sym.V(symbolName(x.Name))
	case *ast.Unary:
		inner := e.evalExpr(x.X, env)
		switch x.Op {
		case token.NOT:
			return sym.NotE(inner)
		case token.MINUS:
			return sym.NegE(inner)
		}
	case *ast.Binary:
		l := e.evalExpr(x.L, env)
		r := e.evalExpr(x.R, env)
		switch x.Op {
		case token.PLUS:
			return sym.Add(l, r)
		case token.MINUS:
			return sym.Sub(l, r)
		case token.STAR:
			return sym.Mul(l, r)
		case token.SLASH:
			return sym.Div(l, r)
		case token.PERCENT:
			return sym.Mod(l, r)
		case token.EQ:
			return sym.Cmp(sym.OpEQ, l, r)
		case token.NEQ:
			return sym.Cmp(sym.OpNE, l, r)
		case token.LT:
			return sym.Cmp(sym.OpLT, l, r)
		case token.LE:
			return sym.Cmp(sym.OpLE, l, r)
		case token.GT:
			return sym.Cmp(sym.OpGT, l, r)
		case token.GE:
			return sym.Cmp(sym.OpGE, l, r)
		case token.LAND:
			return sym.AndE(l, r)
		case token.LOR:
			return sym.OrE(l, r)
		}
	}
	panic(fmt.Sprintf("symexec: cannot evaluate expression %T", x))
}
