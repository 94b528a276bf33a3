package symexec

import (
	"fmt"
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
	// SolverCache, when non-nil, is a shared prefix-result cache: engines
	// given the same cache (e.g. the requests of a batch analysis over
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
	// session's Rekey pass).
	Memo *memo.Tree
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

// CheckMergeBound reports whether bound is a usable Config.MergeBound: 0
// (off), MergeUnbounded, or at least 2. Engine construction applies it, and
// front ends call it to reject a bad bound before any analysis runs.
func CheckMergeBound(bound int) error {
	if bound == 1 || bound < MergeUnbounded {
		return fmt.Errorf("merge bound %d out of range (0 = off, %d = unbounded, >= 2 = bounded)", bound, MergeUnbounded)
	}
	return nil
}

// Stats are the cost counters reported in the paper's Table 2: states
// explored, time, and the number of path conditions (len(Summary.Paths)).
type Stats struct {
	StatesExplored     int
	PathsExplored      int
	InfeasibleBranches int
	DepthBoundHits     int
	MaxStatesHit       bool
	Time               time.Duration
	// Solver is the backend's counter snapshot plus two counters the engine
	// keeps itself. Solver.ModelReuses counts branch feasibility decisions
	// the parent state's witness answered with no Check. Solver.CheckPanics
	// counts the Backend.Check calls that panicked and were contained (the
	// engine recovers, reports the check as Unknown, and keeps exploring).
	// A sound backend never panics; that counter is the audit trail for a
	// faulty one.
	Solver constraint.Stats

	// Memo counters of a version-chain session run (zero without Config.Memo).
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

	// Merge holds the state-merging counters of a run with
	// Config.MergeBound set (zero otherwise).
	Merge MergeStats
}

// MergeStats is the observability block of bounded state merging
// (Config.MergeBound, merge.go): how many join-point fusions the run
// performed and how much exploration they collapsed. Like the solver
// counters these are cost observability, not outcome — a merged run covers
// the same affected branches and keeps every path condition solvable (the
// verdict-equivalence gate). The dise facade reports it as merge_stats.
type MergeStats struct {
	// Enabled distinguishes a merged run from the default per-path mode.
	Enabled bool `json:"enabled"`
	// Bound echoes the configured merge bound (MergeUnbounded = fuse every
	// mergeable sibling set whole; >= 2 = fuse in chunks of at most Bound).
	Bound int `json:"bound"`
	// Merges counts join-point fusion operations; each fusion of k sibling
	// states contributes k-1 to MergedStatesSaved.
	Merges            int `json:"merges"`
	MergedStatesSaved int `json:"merged_states_saved"`
	// IteNodes counts the distinct ite expressions the run's merges built
	// when fusing divergent environment bindings — the footprint merging
	// trades exploration for.
	IteNodes int `json:"ite_nodes"`
}

// Add accumulates one run's merge counters into an aggregate. Enabled is a
// disjunction, Bound keeps the first enabled sample's value, the counters
// sum.
func (m *MergeStats) Add(o MergeStats) {
	if o.Enabled && !m.Enabled {
		m.Enabled = true
		m.Bound = o.Bound
	}
	m.Merges += o.Merges
	m.MergedStatesSaved += o.MergedStatesSaved
	m.IteNodes += o.IteNodes
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
// condition. An engine serves one goroutine and one exploration; concurrent
// analyses build one engine each and share a prefix cache.
type Engine struct {
	Prog    *ast.Program
	Proc    *ast.Procedure
	Graph   *cfg.Graph
	Backend constraint.Backend

	config  Config
	domains map[string]solver.Interval
	// lows is the witness of the empty path condition: the least element of
	// every input domain. Every initial state starts from it.
	lows         *solver.Model
	stats        Stats
	depthBound   int
	interruptErr error
	// memoKeys holds the stable key of each node of this graph, by node ID,
	// resolved at build time when Config.Memo is set (read-only thereafter).
	memoKeys []string
	// memoSlots holds the trie's key slot of each node of this graph, by
	// node ID. They are resolved when the run starts (InitialState): the
	// session rekeys the trie after building the engine, and a slot names a
	// key of the trie's current key space.
	memoSlots []*memo.Slot
	// stack mirrors the constraints currently asserted on the Backend, one
	// frame per path-condition conjunct.
	stack []sym.Expr
	// pcScratch is the reusable buffer syncPC and Collect materialize a
	// state's path-condition list into; it keeps stack syncing and path
	// rendering allocation-free in steady state.
	pcScratch []sym.Expr
	// infScratch backs the infeasible-target list of the scheduler's
	// expansions, which the walks read before the next step.
	infScratch [2]*cfg.Node
	// slabs carve the exploration's list cells from chunks and recycle its
	// states (slab.go).
	slabs slabs
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
	if config.MergeBound != 0 {
		if err := CheckMergeBound(config.MergeBound); err != nil {
			return nil, fmt.Errorf("symexec: %w", err)
		}
		if config.Memo != nil {
			return nil, fmt.Errorf("symexec: state merging is incompatible with a memoized session trie: recorded verdicts are keyed by per-path conjunctions, which merging replaces with factored disjunctions")
		}
		if config.MergeBudget < 0 {
			return nil, fmt.Errorf("symexec: merge budget %d is negative (0 = unlimited)", config.MergeBudget)
		}
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
		// the exploration (and the graph cache) only ever read them.
		e.memoKeys = g.StableKeys()
	}
	intDomain := config.IntDomain
	if intDomain == (solver.Interval{}) {
		intDomain = solver.DefaultDomain
	}
	// Symbolic inputs: parameters and globals, as fields are in the paper's
	// SPF setup (§5.2).
	for _, p := range proc.Params {
		if p.Type == ast.TypeBool {
			e.domains[symbolName(p.Name)] = solver.BoolDomain
		} else {
			e.domains[symbolName(p.Name)] = intDomain
		}
	}
	for _, gl := range prog.Globals {
		if gl.Type == ast.TypeBool {
			e.domains[symbolName(gl.Name)] = solver.BoolDomain
		} else {
			e.domains[symbolName(gl.Name)] = intDomain
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
	})
	if err != nil {
		return nil, fmt.Errorf("symexec: %w", err)
	}
	e.Backend = backend
	return e, nil
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
		fmt.Fprintf(&b, "%s=%s;", gl.Name, symbolName(gl.Name))
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

// solverStats snapshots the backend's counters together with the witness
// decisions and the contained Check panics, which the backend cannot count
// itself.
func (e *Engine) solverStats() constraint.Stats {
	s := e.Backend.Stats()
	s.ModelReuses = e.stats.Solver.ModelReuses
	s.CheckPanics = e.stats.Solver.CheckPanics
	return s
}

// InterruptErr returns the error that aborted the exploration, or nil. It is
// set the first time Config.Interrupt returns non-nil; once set, Step
// produces no further successors.
func (e *Engine) InterruptErr() error { return e.interruptErr }

// BudgetExhausted reports whether the MaxStates safety valve has tripped,
// recording the event in the stats. The scheduler's walks (free, committed
// and merged) consult it before expanding a state.
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
// frame per remaining conjunct. Under the scheduler's depth-first order,
// sibling states share their PC prefix (path conditions are extended by
// append-on-fork), so a step to a sibling pops one frame and pushes one,
// and a descent pushes exactly one — the push/pop discipline of incremental
// solving. The walk also moves from a finished subtree back up to an
// ancestor's pending sibling (and the merge queue between arbitrary
// states), so the diff, not a single push or pop, decides the stack.
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

// InitialState builds the state at the begin node: parameters and globals
// bound to fresh symbolic values, path condition true, and the least element
// of every input domain as its witness.
func (e *Engine) InitialState() *State {
	m := map[string]sym.Expr{}
	for _, p := range e.Proc.Params {
		m[p.Name] = sym.V(symbolName(p.Name))
	}
	for _, gl := range e.Prog.Globals {
		m[gl.Name] = sym.V(symbolName(gl.Name))
	}
	env := NewEnv(m)
	// Locals start undefined; the type checker guarantees they are assigned
	// before use on every executable path of well-formed artifacts.
	e.stats.StatesExplored++
	s := &State{Node: e.Graph.Begin, Env: env, PC: nil, Trace: nil, model: e.lows}
	if t := e.config.Memo; t != nil {
		e.memoSlots = make([]*memo.Slot, len(e.memoKeys))
		for id, key := range e.memoKeys {
			e.memoSlots[id] = t.Slot(key)
		}
		s.memo = t.Root(e.memoKeys[e.Graph.Begin.ID])
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
	feasible, infeasible := e.expand(s, nil, nil)
	return Step{Feasible: feasible, InfeasibleTargets: infeasible}
}

// expand is Step with the successors and the infeasible targets appended to
// the given empty buffers, returned as two lists. A node has at most two of
// each, so the scheduler's walks pass two-element arrays (successors from
// their own frame, targets from the engine, read before the next
// expansion) and an expansion allocates no list.
func (e *Engine) expand(s *State, feasible []*State, infeasible []*cfg.Node) ([]*State, []*cfg.Node) {
	if e.interruptErr != nil {
		return nil, nil
	}
	if e.config.Interrupt != nil {
		if err := e.config.Interrupt(); err != nil {
			e.interruptErr = err
			return nil, nil
		}
	}
	n := s.Node
	switch n.Kind {
	case cfg.KindEnd, cfg.KindError:
		return nil, nil
	}
	if s.Depth >= e.depthBound {
		e.stats.DepthBoundHits++
		return nil, nil
	}

	rec := e.memoEnter(s)
	// The successors' trie arms (branch arm, path-condition contribution,
	// key), tracked only when rec != nil: the chain invariant's induction
	// data.
	var armBuf [2]memo.Arm
	arms := armBuf[:0]
	// Every successor records this node in its trace when it is a source
	// statement: one cell, shared by both arms of a conditional.
	trace := s.Trace
	if n.Kind != cfg.KindBegin {
		trace = e.appendTrace(trace, n.ID)
	}
	switch n.Kind {
	case cfg.KindBegin, cfg.KindNop:
		succ := e.fork(s, n.Succs[0].To, trace)
		feasible = append(feasible, succ)
		if rec != nil {
			arms = append(arms, memo.Arm{Via: memo.ViaFlow, Slot: e.memoSlots[succ.Node.ID]})
		}
	case cfg.KindWrite:
		a := n.Stmt.(*ast.Assign)
		val := e.evalExpr(a.Value, s.Env)
		succ := e.fork(s, n.Succs[0].To, trace)
		succ.Env = succ.Env.Set(a.Name, val)
		feasible = append(feasible, succ)
		if rec != nil {
			arms = append(arms, memo.Arm{Via: memo.ViaFlow, Slot: e.memoSlots[succ.Node.ID]})
		}
	case cfg.KindCond:
		cond := e.evalExpr(n.Cond, s.Env)
		for arm, branch := range [2]struct {
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
					infeasible = append(infeasible, branch.to)
					continue
				}
				succ := e.fork(s, branch.to, trace)
				if branch.to.Kind == cfg.KindError {
					succ.Err = true
				}
				feasible = append(feasible, succ)
				if rec != nil {
					// A folded branch appends no conjunct: nil contribution.
					arms = append(arms, memo.Arm{Via: via, Slot: e.memoSlots[branch.to.ID]})
				}
			default:
				var model *solver.Model
				if s.model != nil {
					if v, err := sym.Eval(c, s.model); err == nil && v != 0 {
						// The parent's witness already satisfies the branch
						// constraint: PC ∧ c is satisfiable without solving.
						model = s.model
						e.stats.Solver.ModelReuses++
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
							infeasible = append(infeasible, branch.to)
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
						e.config.Memo.Record(rec, branch.c, res.Sat, res.Model)
					}
					if !res.Sat {
						e.stats.InfeasibleBranches++
						infeasible = append(infeasible, branch.to)
						continue
					}
					model = res.Model
				}
				succ := e.fork(s, branch.to, trace)
				succ.PC = e.appendPC(s.PC, branch.c)
				succ.model = model
				if branch.to.Kind == cfg.KindError {
					succ.Err = true
				}
				feasible = append(feasible, succ)
				if rec != nil {
					arms = append(arms, memo.Arm{Via: via, Cond: branch.c, Slot: e.memoSlots[branch.to.ID]})
				}
			}
		}
	default:
		panic(fmt.Sprintf("symexec: cannot execute node %v", n))
	}
	if rec != nil {
		var kids [2]*memo.Node
		e.config.Memo.Expand(rec, arms, kids[:])
		for i, st := range feasible {
			st.memo = kids[i]
		}
	}
	e.stats.StatesExplored += len(feasible)
	return feasible, infeasible
}

// memoEnter resolves the memo-trie node of a state about to be expanded.
// The node's identity (stable key) is re-learned on divergence — e.g. an
// inserted statement shifted the walk's alignment — but never gates replay:
// data validity rests entirely on the chain invariant (internal/memo), which
// the trie's Expand enforces when children are attached.
func (e *Engine) memoEnter(s *State) *memo.Node {
	rec := s.memo
	if rec == nil {
		return nil
	}
	e.config.Memo.Enter(rec, e.memoSlots[s.Node.ID])
	if rec.Expanded {
		e.stats.MemoStatesReplayed++
	} else {
		e.stats.MemoStatesLive++
	}
	return rec
}

// Terminal reports whether s completed a path (end node or error sink).
func (e *Engine) Terminal(s *State) bool {
	return s.Node.Kind == cfg.KindEnd || s.Node.Kind == cfg.KindError
}

// Collect converts a terminal state into a Path record. The path keeps the
// state's shared-tail path-condition and trace lists and its persistent
// environment and witness as they are; only the path condition's rendering
// is built here, from the engine's scratch buffer.
func (e *Engine) Collect(s *State) Path {
	e.stats.PathsExplored++
	e.pcScratch = s.PC.AppendTo(e.pcScratch[:0])
	return Path{
		PCString: sym.Conjoin(e.pcScratch),
		Env:      s.Env,
		Cover:    s.Cover,
		Err:      s.Err || s.Node.Kind == cfg.KindError,
		Witness:  s.model,
		pc:       s.PC,
		trace:    s.Trace,
	}
}

// RunFull performs full (traditional) symbolic execution: every feasible
// path up to the depth bound, explored by the scheduler depth-first and
// emitted in that preorder. This is the "Full Symbc" control technique of
// the paper's evaluation.
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
