// Package dise is a Go implementation of Directed Incremental Symbolic
// Execution (Person, Yang, Rungta, Khurshid — PLDI 2011), together with the
// complete substrate it needs: a small Java-like imperative language with
// lexer, parser and type checker; control flow graphs with post-dominance,
// control dependence and SCC analyses; a structural AST diff; a symbolic
// execution engine; and a Choco-style finite-domain constraint solver.
//
// The public API is the Analyzer: a reusable, concurrency-safe service
// object that parses two versions of a program, diffs them, computes the
// affected-location sets (ACN/AWN, paper Fig. 3–5), runs the directed
// symbolic execution (paper Fig. 6), and exposes the resulting affected
// path conditions, cost statistics, and regression-test
// selection/augmentation (paper §5.2). Analyses accept a context.Context
// (cancellation reaches the innermost search loops), reuse a parse/CFG
// cache across requests, and can be batched or streamed.
//
// Quick start:
//
//	a := dise.NewAnalyzer()
//	res, err := a.Analyze(ctx, dise.Request{BaseSrc: baseSrc, ModSrc: modSrc, Proc: "update"})
//	for _, pc := range res.PathConditions() { fmt.Println(pc) }
package dise

import (
	"encoding/json"
	"fmt"

	"dise/internal/artifacts"
	"dise/internal/constraint"
	idise "dise/internal/dise"
	"dise/internal/inline"
	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/lang/types"
	"dise/internal/symexec"
	"dise/internal/testgen"
)

// Program is a parsed and type-checked program.
type Program struct {
	AST *ast.Program
	src string
}

// ParseProgram parses and type-checks source text.
func ParseProgram(src string) (*Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, &Error{Kind: ParseError, Err: err}
	}
	if _, err := types.Check(prog); err != nil {
		return nil, &Error{Kind: TypeError, Err: err}
	}
	return &Program{AST: prog, src: src}, nil
}

// Procedures lists the procedure names in declaration order.
func (p *Program) Procedures() []string {
	out := make([]string, len(p.AST.Procs))
	for i, pr := range p.AST.Procs {
		out[i] = pr.Name
	}
	return out
}

// Pretty returns the canonical pretty-printed source.
func (p *Program) Pretty() string { return ast.Pretty(p.AST) }

// PathInfo describes one explored path.
type PathInfo struct {
	// PathCondition is the rendered path condition, e.g.
	// "PedalPos <= 0 && BSwitch == 0".
	PathCondition string `json:"path_condition"`
	// AssertViolated reports that the path ends in an assertion failure.
	AssertViolated bool `json:"assert_violated"`
}

// Stats summarizes the cost of a symbolic execution run (the dependent
// variables of the paper's evaluation, §4.2.2).
type Stats struct {
	StatesExplored     int   `json:"states_explored"`
	PathConditions     int   `json:"path_conditions"`
	InfeasibleBranches int   `json:"infeasible_branches"`
	TimeMilliseconds   int64 `json:"time_ms"`
	SolverCalls        int   `json:"solver_calls"`
	// Solver breaks the solver work down by the incremental machinery of
	// the constraint subsystem (internal/constraint).
	Solver SolverStats `json:"solver_stats"`
	// Memo reports the execution-tree reuse of a version-chain session
	// (Session.Advance); it is zero for one-shot Analyze calls.
	Memo MemoStats `json:"memo_stats"`
	// Merge reports the join-point state fusion of a bounded-state-merging
	// run (WithStateMerging); it is zero when merging is disabled.
	Merge MergeStats `json:"merge_stats"`
}

// MarshalJSON omits the solver/memo/merge observability sub-blocks uniformly
// when they carry no data: a block equal to its zero value disappears from
// the output instead of serializing as a tree of zeros. The struct tags
// alone cannot express this — encoding/json's omitempty never applies to
// struct-typed fields — so the zero checks live here.
func (s Stats) MarshalJSON() ([]byte, error) {
	type alias Stats // method-free copy: avoids recursing into MarshalJSON
	out := struct {
		alias
		Solver *SolverStats `json:"solver_stats,omitempty"`
		Memo   *MemoStats   `json:"memo_stats,omitempty"`
		Merge  *MergeStats  `json:"merge_stats,omitempty"`
	}{alias: alias(s)}
	if s.Solver != (SolverStats{}) {
		out.Solver = &s.Solver
	}
	if s.Memo != (MemoStats{}) {
		out.Memo = &s.Memo
	}
	if s.Merge != (MergeStats{}) {
		out.Merge = &s.Merge
	}
	return json.Marshal(out)
}

// MemoStats is the observability block of a version-chain session step: how
// much of the previous version's recorded execution tree survived the edit,
// and how many solver decisions were answered from it.
type MemoStats struct {
	// Enabled distinguishes a session step from a cold Analyze.
	Enabled bool `json:"enabled"`
	// Step counts Advance calls on the session, starting at 1.
	Step int `json:"step"`
	// MemoHits counts branch feasibility decisions answered by a recorded
	// verdict — decisions made with no constraint.Backend.Check call at all.
	MemoHits int `json:"memo_hits"`
	// StatesReplayed counts state expansions served on a matched trie node
	// with recorded facts; StatesExploredLive counts expansions recorded
	// fresh (changed, newly reached, or previously pruned regions).
	StatesReplayed     int `json:"states_replayed"`
	StatesExploredLive int `json:"states_explored_live"`
	// NodesKept and NodesInvalidated report the diff-driven trie rewrite
	// that preceded the run: recorded nodes whose statements survived the
	// edit versus nodes dropped because their statement changed, moved, or
	// the symbolic inputs diverged.
	NodesKept        int `json:"nodes_kept"`
	NodesInvalidated int `json:"nodes_invalidated"`
	// NodesEvicted counts nodes the step's budget enforcement dropped
	// (WithMemoNodeBudget) — cold subtrees that will re-solve if needed,
	// never a correctness event.
	NodesEvicted int `json:"nodes_evicted"`
	// TrieNodes is the size of the memo trie after the step; TrieBytes its
	// approximate retained footprint (memo.Tree.Bytes).
	TrieNodes int   `json:"trie_nodes"`
	TrieBytes int64 `json:"trie_bytes"`
}

// MergeStats is the observability block of bounded state merging
// (WithStateMerging, Request.MergeBound): how many join-point fusions the
// run performed and how much exploration they collapsed. It is the engine's
// counter set itself, JSON tags included.
type MergeStats = symexec.MergeStats

// SolverStats is the observability block of the constraint subsystem: how
// many satisfiability checks ran, how the assertion stack moved with the
// exploration tree, and how many checks the prefix-reuse machinery (cache,
// witness models, propagation snapshots) answered without a full solve. It
// is the constraint package's counter set itself, JSON tags included.
type SolverStats = constraint.Stats

// Add accumulates one session step's memo counters into an aggregate. In the
// aggregate, Step counts the enabled (session-step) samples added, and
// TrieNodes tracks the largest trie observed; the hit/replay/invalidation
// counters sum.
func (m *MemoStats) Add(o MemoStats) {
	if o.Enabled {
		m.Enabled = true
		m.Step++
	}
	m.MemoHits += o.MemoHits
	m.StatesReplayed += o.StatesReplayed
	m.StatesExploredLive += o.StatesExploredLive
	m.NodesKept += o.NodesKept
	m.NodesInvalidated += o.NodesInvalidated
	m.NodesEvicted += o.NodesEvicted
	if o.TrieNodes > m.TrieNodes {
		m.TrieNodes = o.TrieNodes
	}
	if o.TrieBytes > m.TrieBytes {
		m.TrieBytes = o.TrieBytes
	}
}

// Add accumulates one run's cost statistics into an aggregate (counters
// sum, the solver/memo blocks aggregate per their own Add semantics).
// Services use it to expose cumulative solver_stats/memo_stats across
// requests.
func (s *Stats) Add(o Stats) {
	s.StatesExplored += o.StatesExplored
	s.PathConditions += o.PathConditions
	s.InfeasibleBranches += o.InfeasibleBranches
	s.TimeMilliseconds += o.TimeMilliseconds
	s.SolverCalls += o.SolverCalls
	s.Solver.Add(o.Solver)
	s.Memo.Add(o.Memo)
	s.Merge.Add(o.Merge)
}

func statsOf(s symexec.Stats, pcs int) Stats {
	return Stats{
		StatesExplored:     s.StatesExplored,
		PathConditions:     pcs,
		InfeasibleBranches: s.InfeasibleBranches,
		TimeMilliseconds:   s.Time.Milliseconds(),
		SolverCalls:        s.Solver.Checks,
		Solver:             s.Solver,
		Merge:              s.Merge,
	}
}

// Result is the outcome of a DiSE analysis of two program versions.
type Result struct {
	// Paths are the affected path conditions of the modified version.
	Paths []PathInfo
	// Stats is the cost of the directed symbolic execution.
	Stats Stats
	// ChangedNodes counts CFG nodes marked changed/added/removed by the
	// differential analysis.
	ChangedNodes int
	// AffectedConditionalLines and AffectedWriteLines are the source lines
	// of the affected sets (ACN and AWN) in the modified version.
	AffectedConditionalLines []int
	AffectedWriteLines       []int

	internal *idise.Result
	proc     *ast.Procedure // the analyzed procedure of the modified version
}

// PathConditions returns the rendered affected path conditions.
func (r *Result) PathConditions() []string {
	out := make([]string, len(r.Paths))
	for i, p := range r.Paths {
		out[i] = p.PathCondition
	}
	return out
}

// InlineProgram expands every call reachable from entryProc and returns the
// single-procedure program as pretty-printed source.
func InlineProgram(src, entryProc string) (string, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return "", err
	}
	flat, err := inline.Program(prog.AST, entryProc)
	if err != nil {
		return "", err
	}
	return ast.Pretty(flat), nil
}

// Summary is the outcome of full (traditional) symbolic execution.
type Summary struct {
	Paths []PathInfo
	Stats Stats

	proc    *ast.Procedure
	summary *symexec.Summary
}

// PathConditions returns the rendered path conditions.
func (s *Summary) PathConditions() []string {
	out := make([]string, len(s.Paths))
	for i, p := range s.Paths {
		out[i] = p.PathCondition
	}
	return out
}

// TestCase is a concrete invocation of the procedure under analysis,
// rendered as a call string (paper §5.2), with the path condition it was
// generated from.
type TestCase = testgen.TestCase

// Tests renders the concrete test inputs of the summary's paths: each
// path's witness, the model exploration found for its path condition.
func (s *Summary) Tests() []TestCase {
	return (&testgen.Generator{Proc: s.proc}).Generate(s.summary)
}

// Tests renders the concrete test inputs of the DiSE result's affected
// paths for the modified version: each path's witness, the model the
// directed search found for its path condition. The error is always nil;
// no path condition is solved again.
func (r *Result) Tests() ([]TestCase, error) {
	return (&testgen.Generator{Proc: r.proc}).Generate(r.internal.Summary), nil
}

// Selection splits DiSE-generated tests against an existing suite (paper
// §5.2, Table 3): Selected tests already exist and can be re-used; Added
// tests are new and augment the suite; Total counts both.
type Selection = testgen.Selection

// SelectAugment performs test case selection and augmentation by exact
// string comparison of rendered calls, as in the paper.
func SelectAugment(baseSuite, diseTests []TestCase) Selection {
	return testgen.SelectAugment(baseSuite, diseTests)
}

// EvaluationArtifacts lists the names of the built-in evaluation artifacts
// (the paper's WBS, ASW and OAE re-creations).
func EvaluationArtifacts() []string {
	var out []string
	for _, a := range artifacts.All() {
		out = append(out, a.Name)
	}
	return out
}

func errUnknownArtifact(name string) error {
	return fmt.Errorf("unknown artifact %q (have %v)", name, EvaluationArtifacts())
}
