// Package constraint is the pluggable incremental constraint-solving
// subsystem behind symbolic execution.
//
// Symbolic execution explores a tree of program paths, and sibling paths
// share long path-condition prefixes: the path condition of a state is its
// parent's path condition plus one branch constraint. The package models
// that sharing directly with an assertion stack, in the style of
// incremental SMT solvers (and of Pinaka's solver-state reuse across the
// exploration tree): the execution engine pushes a frame and asserts the
// branch constraint when it descends into a branch, pops the frame when it
// backtracks, and each Check decides only the conjunction currently on the
// stack. Backends are free to reuse work across Checks that share a stack
// prefix — the interval backend snapshots its propagation state per frame
// and keeps an LRU cache of solved prefixes shared across concurrent
// engines (see interval.go); the bitvector backend recalls whole-stack
// verdicts from the same kind of cache (see bitvec.go). No backend re-tests
// a parent prefix's witness: the engine evaluates each branch constraint
// under its state's witness first and asks a backend only about the branch
// arms that witness fails.
//
// Two backends are built in:
//
//   - "interval" (the default): an incremental adapter over the
//     finite-domain interval-propagation solver in internal/solver,
//     preserving the Choco-like semantics the DiSE paper ran with;
//   - "bitvec": a pure-Go 64-bit two's-complement solver over the same sym
//     expressions, with wraparound arithmetic (bitvec.go), deciding
//     overflow scenarios the saturating interval domain cannot express.
//
// A third ships as a self-registering subpackage (imported for side effect
// by the dise facade): "smtlib", a supervised external SMT-LIB2 process
// with an in-process fallback (internal/constraint/smtlib). Further
// backends are added by implementing Backend and calling Register from an
// init function. Every backend treats an exhausted budget or an interrupt
// as an Unknown result, which callers treat as unsatisfiable — identical
// semantics across backends, as SPF does (paper §4.1). Each Check is
// answered by the one backend the engine was configured with.
package constraint

import (
	"fmt"
	"sort"
	"sync"

	"dise/internal/solver"
	"dise/internal/sym"
)

// Backend names accepted by New (and by the -solver flag of cmd/dise).
const (
	// BackendInterval is the incremental interval-propagation adapter.
	BackendInterval = "interval"
	// BackendIntervalNoReuse is the interval adapter with every form of
	// cross-Check reuse disabled: each Check re-solves its full assertion
	// stack from scratch. It exists as the A/B baseline for benchmarks and
	// equivalence tests, and mirrors what the engine did before the
	// subsystem existed.
	BackendIntervalNoReuse = "interval-noreuse"
	// BackendBitvec is the pure-Go 64-bit bitvector solver.
	BackendBitvec = "bitvec"
)

// Options configures a backend instance. A backend instance serves one
// engine (one goroutine); only the shared prefix Cache is safe for
// concurrent use.
type Options struct {
	// Domains assigns every symbolic input its interval domain. Backends
	// include all of these variables in every model, so callers can read
	// values for unconstrained inputs. Variables appearing in constraints
	// but absent here default to solver.DefaultDomain.
	Domains map[string]solver.Interval
	// NodeBudget caps search nodes per Check; exceeding it yields Unknown
	// (treated as unsatisfiable by callers). Zero means the backend default.
	NodeBudget int
	// Interrupt, when non-nil, is polled during solving; a non-nil return
	// aborts the Check with Unknown.
	Interrupt func() error
	// Cache, when non-nil, is a shared LRU of solved prefix hashes
	// (interval backend). Engines exploring related programs — sibling
	// requests of an AnalyzeBatch sharing a base version — hit each other's
	// entries. When nil the interval backend creates a private cache.
	Cache *PrefixCache
	// SMT configures the external-process "smtlib" backend (solver binary,
	// deadlines, restart/breaker policy). The zero value selects
	// auto-discovery with serviceable defaults; irrelevant to the pure-Go
	// backends.
	SMT SMTOptions
}

// Result is the outcome of a Check.
type Result struct {
	Sat     bool
	Unknown bool // budget exhausted or interrupted before a verdict
	// Model is the witness when Sat, and nil otherwise: it binds every
	// domain variable, plus any other name the constraints mention, to a
	// value, laid out over the input index of the domains. Every Sat result
	// carries one. Models are deterministic for a given backend and
	// assertion stack, and shared read-only: the prefix cache, memo
	// verdicts, exploration states and the paths they end as all hold the
	// same model, so nothing may write into one.
	Model *solver.Model
}

// Stats counts backend work across Checks. It is also the solver_stats block
// of the dise facade's JSON and of the service's /metrics, so the JSON tags
// are part of the wire format. The frame counters expose the push/pop
// traffic of the exploration tree; the cache and reuse counters quantify how
// much solving the incremental machinery avoided.
type Stats struct {
	Backend string `json:"backend"` // registry name of the backend that produced the stats

	Checks  int `json:"checks"` // Check invocations
	Sat     int `json:"sat"`
	Unsat   int `json:"unsat"`
	Unknown int `json:"unknown"` // budget exhausted or interrupted

	Asserts       int `json:"asserts"` // constraints asserted
	PushedFrames  int `json:"pushed_frames"`
	PoppedFrames  int `json:"popped_frames"`
	CacheHits     int `json:"cache_hits"` // full stack verdict answered by the prefix cache
	CacheMisses   int `json:"cache_misses"`
	ModelReuses   int `json:"model_reuses"`    // branch decisions the parent state's witness answered with no Check (engine-counted)
	BoxConflicts  int `json:"box_conflicts"`   // unsat decided by propagating only the new conjunct
	FullSolves    int `json:"full_solves"`     // Checks that fell through to a full solver search
	SearchNodes   int `json:"search_nodes"`    // inner-solver branching nodes
	Propagations  int `json:"propagations"`    // inner-solver domain-tightening passes
	BoxSnapshots  int `json:"box_snapshots"`   // propagation-state snapshots taken (interval)
	FrameMemoHits int `json:"frame_memo_hits"` // always 0; kept until bench/solver.go stops reading it

	// Resilience counters of the external-process machinery (the smtlib
	// backend's supervision ladder). They are cost/health observability
	// only: every degradation step ends in a verdict from the in-process
	// fallback, so these counters moving never changes an exploration's
	// outcome. All zero — and omitted from JSON — for purely in-process
	// backends.
	ExtSolves       int `json:"ext_solves,omitempty"`        // check-sat conversations attempted with an external solver
	ExtAnswers      int `json:"ext_answers,omitempty"`       // definitive external verdicts adopted (sat ones model-validated)
	ExtUnknowns     int `json:"ext_unknowns,omitempty"`      // Checks the external layer could not decide (absent binary, crash, timeout, garbage, breaker open, "unknown" reply)
	ExtTimeouts     int `json:"ext_timeouts,omitempty"`      // per-check deadlines that expired, killing the process
	ExtRestarts     int `json:"ext_restarts,omitempty"`      // external solver processes spawned (first launch included)
	ExtBreakerTrips int `json:"ext_breaker_trips,omitempty"` // circuit-breaker opens after consecutive failures
	FallbackSolves  int `json:"fallback_solves,omitempty"`   // verdicts supplied by the in-process fallback backend

	// CheckPanics counts Check calls that panicked and were contained by
	// the symbolic-execution engine (recovered, reported Unknown, kept
	// exploring). Backends never set it, nor ModelReuses; the engine fills
	// both in when it snapshots their stats.
	CheckPanics int `json:"check_panics,omitempty"`
}

// Add accumulates o into s, field by field. Services use it to sum
// per-request stats into cumulative totals. The Backend name is taken from o
// when s has none.
func (s *Stats) Add(o Stats) {
	if s.Backend == "" {
		s.Backend = o.Backend
	}
	s.Checks += o.Checks
	s.Sat += o.Sat
	s.Unsat += o.Unsat
	s.Unknown += o.Unknown
	s.Asserts += o.Asserts
	s.PushedFrames += o.PushedFrames
	s.PoppedFrames += o.PoppedFrames
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.ModelReuses += o.ModelReuses
	s.BoxConflicts += o.BoxConflicts
	s.FullSolves += o.FullSolves
	s.SearchNodes += o.SearchNodes
	s.Propagations += o.Propagations
	s.BoxSnapshots += o.BoxSnapshots
	s.FrameMemoHits += o.FrameMemoHits
	s.ExtSolves += o.ExtSolves
	s.ExtAnswers += o.ExtAnswers
	s.ExtUnknowns += o.ExtUnknowns
	s.ExtTimeouts += o.ExtTimeouts
	s.ExtRestarts += o.ExtRestarts
	s.ExtBreakerTrips += o.ExtBreakerTrips
	s.FallbackSolves += o.FallbackSolves
	s.CheckPanics += o.CheckPanics
}

// Backend is one constraint solver with an assertion stack.
//
// The stack discipline mirrors the execution tree: Push opens a frame,
// Assert adds constraints to the top frame, Check decides the conjunction
// of all frames, Pop discards the top frame; a satisfiable Check's Result
// carries its witness. Backends are not safe for concurrent use; each
// engine owns one instance.
type Backend interface {
	// Push opens a new assertion frame.
	Push()
	// Pop discards the top frame and its assertions. Popping the base
	// frame panics: it indicates a push/pop imbalance in the caller.
	Pop()
	// Assert adds a constraint to the top frame.
	Assert(c sym.Expr)
	// Check decides satisfiability of the conjunction of every asserted
	// constraint under the input domains.
	Check() Result
	// Stats returns accumulated counters.
	Stats() Stats
}

// registry holds the backend constructors added by Register, keyed by
// name. The built-in backends stay in New's switch; the map only carries
// subpackage and test registrations.
var (
	registryMu sync.RWMutex
	registry   = map[string]func(Options) (Backend, error){}
)

// Register adds a backend constructor under name, making it available to
// New (and so to every -solver flag and facade option). It is intended to
// be called from init functions of backend subpackages — smtlib registers
// itself this way — and panics on a duplicate or built-in name: two
// packages claiming one name is a wiring bug, not a runtime condition.
func Register(name string, ctor func(Options) (Backend, error)) {
	if name == "" || ctor == nil {
		panic("constraint: Register needs a name and a constructor")
	}
	switch name {
	case BackendInterval, BackendIntervalNoReuse, BackendBitvec:
		panic(fmt.Sprintf("constraint: Register(%q) collides with a built-in backend", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("constraint: backend %q registered twice", name))
	}
	registry[name] = ctor
}

// New constructs a backend by registry name. The empty name selects the
// default interval backend.
func New(name string, opts Options) (Backend, error) {
	switch name {
	case "", BackendInterval:
		return newIntervalBackend(opts, true), nil
	case BackendIntervalNoReuse:
		return newIntervalBackend(opts, false), nil
	case BackendBitvec:
		return newBitvecBackend(opts), nil
	}
	registryMu.RLock()
	ctor := registry[name]
	registryMu.RUnlock()
	if ctor != nil {
		return ctor(opts)
	}
	return nil, fmt.Errorf("constraint: unknown solver backend %q (have %v)", name, Names())
}

// Names lists the registered backend names: the built-ins in their
// historical order, then the Register-ed ones sorted for determinism.
func Names() []string {
	out := []string{BackendInterval, BackendIntervalNoReuse, BackendBitvec}
	registryMu.RLock()
	extra := make([]string, 0, len(registry))
	for name := range registry {
		extra = append(extra, name)
	}
	registryMu.RUnlock()
	sort.Strings(extra)
	return append(out, extra...)
}

// Tally folds one result into the verdict counters. Backends outside this
// package (smtlib) use it to keep their Sat/Unsat/Unknown bookkeeping
// identical to the built-ins'.
func (s *Stats) Tally(r Result) {
	switch {
	case r.Sat:
		s.Sat++
	case r.Unknown:
		s.Unknown++
	default:
		s.Unsat++
	}
}
