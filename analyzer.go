package dise

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"dise/internal/artifacts"
	"dise/internal/cfg"
	"dise/internal/constraint"
	idise "dise/internal/dise"

	// The external-solver backend registers itself with the constraint
	// registry, making "smtlib" a valid WithSolverBackend name for every
	// consumer of the facade.
	_ "dise/internal/constraint/smtlib"
	"dise/internal/evaluation"
	"dise/internal/inline"
	"dise/internal/lang/ast"
	"dise/internal/solver"
	"dise/internal/sym"
	"dise/internal/symexec"
)

// Analyzer is the reusable, concurrency-safe entry point of the package. It
// is meant to live for the duration of a service: construct one with
// NewAnalyzer, then serve many Analyze/Execute/AnalyzeBatch calls against
// it. All configuration is immutable after construction; per-request state
// (engines, solvers) is private to each call, and the parse/CFG cache is
// internally synchronized — so a single Analyzer may be shared freely across
// goroutines.
//
// An Analyzer provides:
//
//   - context support: every entry point takes a context.Context, and
//     cancellation is polled inside the symbolic-execution step loop and the
//     constraint solver's search loop, so a cancelled request stops
//     mid-exploration and returns an *Error with Kind Cancelled;
//   - a parse/CFG cache keyed by source hash: repeated analyses against the
//     same base version — the common CI workload of one base and many
//     candidate patches — skip parsing, type checking and CFG construction;
//   - batching (AnalyzeBatch) over a bounded worker pool, and streaming
//     (AnalyzeStream) of affected path conditions as they are found.
type Analyzer struct {
	conf  analyzerConfig
	cache *programCache
	// solverCache is the shared prefix-result cache of the constraint
	// subsystem: concurrent requests (AnalyzeBatch workers analyzing
	// variants of one base program) reuse each other's solved
	// path-condition prefixes through it.
	solverCache *constraint.PrefixCache
	// runsDone counts completed runs, driving the intern-GC cadence
	// (WithInternGC): one epoch per run, one collection per keep-window.
	runsDone atomic.Uint64
}

// analyzerConfig is the resolved option set of an Analyzer.
type analyzerConfig struct {
	depthBound       int
	intDomain        *[2]int64
	solverNodeBudget int
	transitiveWrites bool
	maxStates        int
	parallelism      int
	cacheCapacity    int
	solverBackend    string
	solverSMT        constraint.SMTOptions
	memoNodeBudget   int
	internGCEpochs   int
	cacheBytes       int64
	mergeBound       int
	mergeBudget      int
}

// Option configures an Analyzer (functional options).
type Option func(*analyzerConfig)

// WithDepthBound limits the number of CFG nodes executed on one path
// (loop/recursion bound, paper §2.1). Zero selects the default of 1000.
func WithDepthBound(n int) Option { return func(c *analyzerConfig) { c.depthBound = n } }

// WithIntDomain overrides the solver domain of integer symbolic inputs. The
// default is the Choco-like non-negative range [0, 1e6].
func WithIntDomain(lo, hi int64) Option {
	return func(c *analyzerConfig) { c.intDomain = &[2]int64{lo, hi} }
}

// WithSolverNodeBudget caps constraint-solver search nodes per
// satisfiability check (0 = default). Exhausted budgets are treated as
// unsatisfiable, as SPF does (paper §4.1).
func WithSolverNodeBudget(n int) Option {
	return func(c *analyzerConfig) { c.solverNodeBudget = n }
}

// WithTransitiveWrites enables the write→write dataflow extension to the
// paper's affected-set rules: a change to "x = ..." also affects a later
// "y = x" (internal/dise extensions_test.go pins the difference).
func WithTransitiveWrites(on bool) Option {
	return func(c *analyzerConfig) { c.transitiveWrites = on }
}

// WithMaxStates caps the number of states explored per request; a request
// that trips the cap fails with Kind BudgetExhausted. Zero means no cap.
func WithMaxStates(n int) Option { return func(c *analyzerConfig) { c.maxStates = n } }

// WithParallelism bounds the worker pool of AnalyzeBatch. Zero (the
// default) selects GOMAXPROCS workers.
func WithParallelism(n int) Option { return func(c *analyzerConfig) { c.parallelism = n } }

// WithCacheCapacity bounds the parse/CFG cache to n source texts, evicting
// least-recently-used entries. Zero selects the default of 128.
func WithCacheCapacity(n int) Option { return func(c *analyzerConfig) { c.cacheCapacity = n } }

// WithSolverBackend selects the constraint-solving backend by name:
// "interval" (the default incremental interval-propagation adapter),
// "bitvec" (the pure-Go 64-bit bitvector solver with wraparound
// semantics), "interval-noreuse" (the non-incremental baseline used for
// A/B measurement) or "smtlib" (an external SMT-LIB2 solver process with
// an in-process interval fallback). An unknown name fails the first
// analysis with a descriptive error. See SolverBackends for the accepted
// names.
func WithSolverBackend(name string) Option {
	return func(c *analyzerConfig) { c.solverBackend = name }
}

// WithSMTSolver points the "smtlib" backend at an explicit solver binary
// instead of PATH discovery. The empty path keeps discovery; a missing or
// broken binary is never an error — every affected check degrades to the
// in-process fallback and is counted in the solver stats (ext_unknowns).
func WithSMTSolver(path string) Option {
	return func(c *analyzerConfig) { c.solverSMT.SolverPath = path }
}

// SolverBackends lists the names accepted by WithSolverBackend (and by the
// -solver flag of cmd/dise).
func SolverBackends() []string { return constraint.Names() }

// WithMemoNodeBudget bounds each version-chain session's memo trie to n
// nodes: after every step, whole cold subtrees (stale first, then least
// hit) are evicted until the trie fits. Evicted conjunctions simply
// re-solve cold if a later version produces them again — results never
// change, only hit rates. Zero (the default) leaves tries unbounded.
func WithMemoNodeBudget(n int) Option {
	return func(c *analyzerConfig) { c.memoNodeBudget = n }
}

// WithInternGC enables epoch-based collection of the global hash-consing
// intern table: the Analyzer advances the interner epoch once per completed
// run and, every keepEpochs runs, drops table entries no run touched for
// keepEpochs epochs (sym.CollectInterned). Collection is invisible to
// results — a collected expression re-interns fresh and every consumer
// compares structurally — it only bounds the table's footprint. Zero (the
// default) disables collection.
func WithInternGC(keepEpochs int) Option {
	return func(c *analyzerConfig) { c.internGCEpochs = keepEpochs }
}

// WithCacheByteBudget bounds the Analyzer's two shared caches — the
// parse/CFG cache and the solved-prefix cache — to approximately n retained
// bytes in total (split evenly between them), on top of their entry-count
// capacities. Zero (the default) applies no byte bound.
func WithCacheByteBudget(n int64) Option {
	return func(c *analyzerConfig) { c.cacheBytes = n }
}

// MergeUnbounded selects unlimited fusion at join points for
// WithStateMerging: every mergeable sibling set is collapsed whole.
const MergeUnbounded = symexec.MergeUnbounded

// WithStateMerging enables bounded state merging: at control-flow join
// points, sibling states whose environments differ only in value bindings
// are fused into one state whose environment maps each divergent name to an
// ite expression and whose path condition factors the siblings' branch
// constraints into a disjunction. This collapses the path explosion of
// independent diamond chains — k sequential diamonds explore O(k) merged
// states instead of O(2^k) paths — at the price of richer (ite/disjunction)
// constraints per solver call.
//
// bound caps how many sibling states one fusion may absorb: 0 disables
// merging (the default), MergeUnbounded fuses every mergeable set whole, and
// bound >= 2 fuses in chunks of at most bound states. A bound of 1 (a
// "merge" of one state) is rejected with Kind InvalidConfig.
//
// Merged runs are verdict-equivalent to unmerged ones — identical affected
// branch coverage and identical per-branch test-generation feasibility —
// but not byte-identical: path conditions arrive factored through joins, so
// reported path sets are coarser. State merging is incompatible with
// version-chain sessions (NewSession), whose memo trie is keyed by per-path
// conjunctions; an Analyzer configured with both fails with Kind
// InvalidConfig.
func WithStateMerging(bound int) Option {
	return func(c *analyzerConfig) { c.mergeBound = bound }
}

// WithMergeBudget caps how many fusion operations one request may perform
// under WithStateMerging (0 = unlimited). Once the budget is spent the run
// degenerates gracefully to per-path exploration for the remaining states —
// coverage is unaffected, only how much of the explosion is collapsed.
func WithMergeBudget(n int) Option {
	return func(c *analyzerConfig) { c.mergeBudget = n }
}

// NewAnalyzer builds an Analyzer from functional options.
func NewAnalyzer(opts ...Option) *Analyzer {
	var conf analyzerConfig
	for _, o := range opts {
		o(&conf)
	}
	if conf.cacheCapacity <= 0 {
		conf.cacheCapacity = 128
	}
	var parseBytes, prefixBytes int64
	if conf.cacheBytes > 0 {
		parseBytes = conf.cacheBytes / 2
		prefixBytes = conf.cacheBytes - parseBytes
	}
	return &Analyzer{
		conf:        conf,
		cache:       newProgramCache(conf.cacheCapacity, parseBytes),
		solverCache: constraint.NewPrefixCacheBytes(0, prefixBytes),
	}
}

// noteRunDone ticks the intern-GC clock after a completed analysis run:
// the epoch advances every run, and a collection sweeps entries older than
// the keep window every keepEpochs runs. A no-op unless WithInternGC is set.
func (a *Analyzer) noteRunDone() {
	keep := a.conf.internGCEpochs
	if keep <= 0 {
		return
	}
	sym.AdvanceEpoch()
	if a.runsDone.Add(1)%uint64(keep) == 0 {
		sym.CollectInterned(keep)
	}
}

// CacheStats reports hit/miss counters of the parse/CFG cache.
func (a *Analyzer) CacheStats() CacheStats { return a.cache.stats() }

// SolverCacheStats reports hit/miss counters of the shared solved-prefix
// cache of the constraint subsystem.
func (a *Analyzer) SolverCacheStats() CacheStats { return a.solverCache.Stats() }

// engineConfig builds the per-request engine configuration. The context's
// Err is polled once per executed CFG node and once per solver search node,
// which is what makes cancellation take effect within one scheduling quantum
// of the step loop.
func (a *Analyzer) engineConfig(ctx context.Context) symexec.Config {
	cfg := symexec.Config{
		DepthBound:    a.conf.depthBound,
		MaxStates:     a.conf.maxStates,
		SolverOptions: solver.Options{NodeBudget: a.conf.solverNodeBudget},
		SolverBackend: a.conf.solverBackend,
		SolverSMT:     a.conf.solverSMT,
		SolverCache:   a.solverCache,
		MergeBound:    a.conf.mergeBound,
		MergeBudget:   a.conf.mergeBudget,
	}
	if a.conf.intDomain != nil {
		cfg.IntDomain = solver.Interval{Lo: a.conf.intDomain[0], Hi: a.conf.intDomain[1]}
	}
	if ctx != nil && ctx.Done() != nil {
		cfg.Interrupt = ctx.Err
		cfg.SolverOptions.Interrupt = ctx.Err
	}
	return cfg
}

// Request describes one differential analysis.
type Request struct {
	// BaseSrc and ModSrc are the source texts of the two program versions.
	BaseSrc, ModSrc string
	// Proc is the procedure under analysis (for inter-procedural requests,
	// the entry procedure).
	Proc string
	// Interprocedural inlines every call reachable from Proc in both
	// versions before the differential analysis (paper §7, realized via the
	// inline package). Requires an acyclic call graph and single-exit
	// callees.
	Interprocedural bool
	// MergeBound, when non-zero, overrides the Analyzer's WithStateMerging
	// bound for this request alone (MergeUnbounded = unlimited fusion at
	// joins). It lets a service expose state merging per request while
	// sharing one Analyzer — and one parse/CFG and solved-prefix cache —
	// across merged and unmerged traffic. The bound is validated like the
	// option: 1 or values below MergeUnbounded fail with Kind InvalidConfig.
	MergeBound int
}

// Analyze runs the full DiSE pipeline — diff, affected locations, directed
// symbolic execution — for one request. On failure it returns an *Error
// whose Kind distinguishes bad input (ParseError, TypeError, UnknownProc)
// from operational outcomes (Cancelled, BudgetExhausted).
func (a *Analyzer) Analyze(ctx context.Context, req Request) (*Result, error) {
	return a.analyze(ctx, req, nil)
}

// AnalyzeStream is Analyze, but yield receives every affected path
// condition as the directed search finds it, instead of only at the end.
// Returning false from yield stops the search; the returned Result then
// holds the paths delivered so far. Yield is called from the request's own
// goroutine, never concurrently.
func (a *Analyzer) AnalyzeStream(ctx context.Context, req Request, yield func(PathInfo) bool) (*Result, error) {
	return a.analyze(ctx, req, yield)
}

// version is one resolved program version: parsed, type-checked, procedure
// validated, and (for the intra-procedural case) the cached precomputed CFG.
// For inter-procedural requests prog/proc are the per-request inlined forms
// and the graph is built fresh (inlining is cheap next to the exploration it
// feeds, and the cache's unit is a source text).
type version struct {
	prog  *ast.Program
	proc  *ast.Procedure
	graph *cfg.Graph
}

// resolveVersion runs one source text through the parse/CFG cache and
// validates the procedure under analysis. stage labels errors ("base
// version" / "modified version" / ""). A per-request inter-procedural graph
// is read by one goroutine only, so its analyses stay lazy; cached graphs
// are precomputed before they are shared.
func (a *Analyzer) resolveVersion(src, procName, stage string, interprocedural bool) (version, error) {
	entry, err := a.cache.get(src)
	if err != nil {
		return version{}, errKind(ParseError, stage, err)
	}
	prog := entry.prog
	if prog.Proc(procName) == nil {
		return version{}, &Error{Kind: UnknownProc, Stage: stage, Err: errProcNotFound(procName)}
	}
	if interprocedural {
		flat, err := inline.Program(prog, procName)
		if err != nil {
			return version{}, errKind(UnknownProc, stage, err)
		}
		return version{prog: flat, proc: flat.Proc(procName), graph: cfg.Build(flat.Proc(procName))}, nil
	}
	proc := prog.Proc(procName)
	// Validate before building CFGs: cfg.Build rejects unexpanded calls.
	if err := symexec.CheckNoCalls(proc); err != nil {
		return version{}, &Error{Kind: TypeError, Stage: stage, Err: err}
	}
	return version{prog: prog, proc: proc, graph: entry.graph(proc)}, nil
}

// runJob executes a prepared directed-analysis job and converts the outcome
// into the public Result, classifying interrupts and budget trips.
func (a *Analyzer) runJob(job idise.Job) (*Result, error) {
	defer a.noteRunDone()
	res := idise.Run(job)
	if err := job.Engine.InterruptErr(); err != nil {
		return nil, &Error{Kind: Cancelled, Err: err}
	}
	if res.Summary.Stats.MaxStatesHit {
		return nil, &Error{Kind: BudgetExhausted}
	}
	out := &Result{
		Stats:                    statsOf(res.Summary.Stats, len(res.Summary.Paths)),
		ChangedNodes:             res.Affected.ChangedNodes,
		AffectedConditionalLines: res.Affected.ACNLines(),
		AffectedWriteLines:       res.Affected.AWNLines(),
		internal:                 res,
		proc:                     job.Engine.Proc,
	}
	out.Paths = pathInfos(res.Summary.Paths)
	return out, nil
}

// pathInfos projects explored paths onto the public PathInfo, in order.
// No paths yield nil, as appending one at a time did.
func pathInfos(paths []symexec.Path) []PathInfo {
	if len(paths) == 0 {
		return nil
	}
	out := make([]PathInfo, len(paths))
	for i, p := range paths {
		out[i] = PathInfo{PathCondition: p.PCString, AssertViolated: p.Err}
	}
	return out
}

func (a *Analyzer) analyze(ctx context.Context, req Request, yield func(PathInfo) bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: Cancelled, Err: err}
	}

	base, err := a.resolveVersion(req.BaseSrc, req.Proc, "base version", req.Interprocedural)
	if err != nil {
		return nil, err
	}
	mod, err := a.resolveVersion(req.ModSrc, req.Proc, "modified version", req.Interprocedural)
	if err != nil {
		return nil, err
	}

	cfgc := a.engineConfig(ctx)
	if req.MergeBound != 0 {
		cfgc.MergeBound = req.MergeBound
	}
	// CheckNoCalls already validated the procedure, so a construction
	// failure here means the engine configuration itself is unusable
	// (e.g. an unknown solver backend name or a bad merge bound).
	engine, err := symexec.NewPrepared(mod.prog, mod.proc, mod.graph, cfgc)
	if err != nil {
		return nil, errKind(InvalidConfig, "", err)
	}
	var onPath func(symexec.Path) bool
	if yield != nil {
		onPath = func(p symexec.Path) bool {
			return yield(PathInfo{PathCondition: p.PCString, AssertViolated: p.Err})
		}
	}
	return a.runJob(idise.Job{
		BaseProc:  base.proc,
		BaseGraph: base.graph,
		Engine:    engine,
		Opts:      idise.Options{TransitiveWrites: a.conf.transitiveWrites},
		OnPath:    onPath,
	})
}

// BatchResult pairs one request of an AnalyzeBatch call with its outcome.
// Exactly one of Result and Err is non-nil.
type BatchResult struct {
	// Index is the position of the request in the batch; results are also
	// returned in request order, so out[i].Index == i.
	Index  int
	Result *Result
	Err    error
}

// AnalyzeBatch analyzes every request, fanning the work across a bounded
// worker pool (WithParallelism). Results are in request order and each
// request fails independently; a cancelled context makes the remaining
// requests fail fast with Kind Cancelled. Because requests in one batch
// typically share a base version, the parse/CFG cache makes the fan-out
// cheap: the base is parsed once, not once per worker.
func (a *Analyzer) AnalyzeBatch(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	workers := a.conf.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := a.Analyze(ctx, reqs[i])
				out[i] = BatchResult{Index: i, Result: res, Err: err}
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// Execute runs full (traditional) symbolic execution of procedure procName
// — the control technique of the paper's evaluation ("Full Symbc").
func (a *Analyzer) Execute(ctx context.Context, src, procName string) (*Summary, error) {
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: Cancelled, Err: err}
	}
	engine, err := a.prepareEngine(ctx, src, procName)
	if err != nil {
		return nil, err
	}
	defer a.noteRunDone()
	summary := engine.RunFull()
	if err := engine.InterruptErr(); err != nil {
		return nil, &Error{Kind: Cancelled, Err: err}
	}
	if summary.Stats.MaxStatesHit && a.conf.maxStates > 0 {
		return nil, &Error{Kind: BudgetExhausted}
	}
	out := &Summary{proc: engine.Proc, summary: summary, Stats: statsOf(summary.Stats, len(summary.Paths)),
		Paths: pathInfos(summary.Paths)}
	return out, nil
}

// ExecutionTree renders the symbolic execution tree (paper Fig. 1) of
// procedure procName. Intended for small programs: the tree output grows
// with the number of states.
func (a *Analyzer) ExecutionTree(ctx context.Context, src, procName string) (string, error) {
	engine, err := a.prepareEngine(ctx, src, procName)
	if err != nil {
		return "", err
	}
	tree := engine.BuildTree()
	if err := engine.InterruptErr(); err != nil {
		return "", &Error{Kind: Cancelled, Err: err}
	}
	return tree.Render(), nil
}

// prepareEngine resolves src and procName through the cache into a ready
// engine.
func (a *Analyzer) prepareEngine(ctx context.Context, src, procName string) (*symexec.Engine, error) {
	entry, err := a.cache.get(src)
	if err != nil {
		return nil, errKind(ParseError, "", err)
	}
	proc := entry.prog.Proc(procName)
	if proc == nil {
		return nil, &Error{Kind: UnknownProc, Err: errProcNotFound(procName)}
	}
	if err := symexec.CheckNoCalls(proc); err != nil {
		return nil, &Error{Kind: TypeError, Err: err}
	}
	engine, err := symexec.NewPrepared(entry.prog, proc, entry.graph(proc), a.engineConfig(ctx))
	if err != nil {
		return nil, errKind(InvalidConfig, "", err)
	}
	return engine, nil
}

// CFGDot renders the control flow graph of procedure procName in Graphviz
// DOT format (paper Fig. 2(b)).
func (a *Analyzer) CFGDot(src, procName string) (string, error) {
	entry, err := a.cache.get(src)
	if err != nil {
		return "", errKind(ParseError, "", err)
	}
	proc := entry.prog.Proc(procName)
	if proc == nil {
		return "", &Error{Kind: UnknownProc, Err: errProcNotFound(procName)}
	}
	return entry.graph(proc).Dot(cfg.DotOptions{Title: procName}), nil
}

// AffectedCFGDot renders the modified version's CFG with affected nodes
// highlighted: affected conditionals in light red, affected writes in light
// blue, like the shading of the paper's Fig. 2(b).
func (a *Analyzer) AffectedCFGDot(ctx context.Context, baseSrc, modSrc, procName string) (string, error) {
	res, err := a.Analyze(ctx, Request{BaseSrc: baseSrc, ModSrc: modSrc, Proc: procName})
	if err != nil {
		return "", err
	}
	g := res.internal.ModGraph
	highlight := map[int]string{}
	acn, awn := res.internal.Affected.ACN, res.internal.Affected.AWN
	for id := acn.Next(0); id >= 0; id = acn.Next(id + 1) {
		highlight[id] = "lightcoral"
	}
	for id := awn.Next(0); id >= 0; id = awn.Next(id + 1) {
		highlight[id] = "lightblue"
	}
	return g.Dot(cfg.DotOptions{Title: procName, Highlight: highlight}), nil
}

// EvaluationTables regenerates Table 2 and Table 3 of the paper for the
// named artifact ("ASW", "WBS" or "OAE", in any letter case). The context
// cancels the underlying symbolic execution runs.
func (a *Analyzer) EvaluationTables(ctx context.Context, artifact string) (table2, table3 string, err error) {
	art, ok := artifacts.ByName(artifact)
	if !ok {
		return "", "", errUnknownArtifact(artifact)
	}
	res, err := evaluation.Run(art, a.engineConfig(ctx))
	if err != nil {
		return "", "", err
	}
	if err := ctx.Err(); err != nil {
		return "", "", &Error{Kind: Cancelled, Err: err}
	}
	return res.Table2(), res.Table3(), nil
}

// errProcNotFound is the shared cause message for UnknownProc errors.
func errProcNotFound(name string) error { return &procNotFoundError{name} }

type procNotFoundError struct{ name string }

func (e *procNotFoundError) Error() string { return "procedure \"" + e.name + "\" not found" }
