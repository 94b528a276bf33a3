package dise

// Backend equivalence over the paper's artifacts: the interval backend
// (with and without incremental reuse) and the bitvector backend must
// produce identical affected-path sets for every version of ASW, WBS and
// OAE, and every backend's witnesses must satisfy their path conditions.
// This is the acceptance gate of the constraint subsystem — on these
// artifacts, swapping the solver must never change WHAT DiSE reports, only
// how fast. (The backends' arithmetics differ at the int64 edges; README
// "Known limitations" lists programs where their verdicts part.)

import (
	"context"
	"errors"
	"testing"

	"dise/internal/artifacts"
)

// TestUnknownSolverBackendError pins the error contract for a
// misconfigured Analyzer: an unknown backend name fails every entry point
// with a structured *Error of Kind InvalidConfig, not a bare error.
func TestUnknownSolverBackendError(t *testing.T) {
	const src = "proc p(int x) { y = x; }"
	a := NewAnalyzer(WithSolverBackend("z3"))
	_, err := a.Analyze(context.Background(), Request{BaseSrc: src, ModSrc: src, Proc: "p"})
	var de *Error
	if !errors.As(err, &de) || de.Kind != InvalidConfig {
		t.Fatalf("Analyze with unknown backend: err = %v, want *Error{Kind: InvalidConfig}", err)
	}
	if _, err := a.Execute(context.Background(), src, "p"); !errors.As(err, &de) || de.Kind != InvalidConfig {
		t.Fatalf("Execute with unknown backend: err = %v, want *Error{Kind: InvalidConfig}", err)
	}
}

// affectedPathSet runs DiSE with the given backend, checks that every
// path's witness satisfies every conjunct of its path condition under
// sym.Eval (whose int64 arithmetic is also bitvec's), and returns
// the path conditions as a set (exploration order is identical too, but
// the set comparison keeps the failure output readable).
func affectedPathSet(t *testing.T, backend, baseSrc, modSrc, proc string) map[string]int {
	t.Helper()
	a := NewAnalyzer(WithSolverBackend(backend))
	res, err := a.Analyze(context.Background(), Request{BaseSrc: baseSrc, ModSrc: modSrc, Proc: proc})
	if err != nil {
		t.Fatalf("[%s] analyze: %v", backend, err)
	}
	checkWitnesses(t, backend, res.internal.Summary.Paths)
	set := map[string]int{}
	for _, p := range res.Paths {
		set[p.PathCondition]++
	}
	return set
}

func equalPathSets(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestUnknownTreatedAsUnsatByEngine pins the caller side of the Unknown
// contract end to end: a branch condition too hard for any backend to
// decide (factoring a prime over wide domains exhausts the node budget)
// must be pruned as infeasible — by every backend identically — so all
// backends report the same single path and count the Unknown in stats.
func TestUnknownTreatedAsUnsatByEngine(t *testing.T) {
	const src = `
proc p(int x, int y) {
  if (x > 1 && y > 1 && x * y == 999983) {
    hit = 1;
  } else {
    hit = 0;
  }
}
`
	for _, backend := range []string{"interval", "interval-noreuse", "bitvec", "smtlib"} {
		t.Run(backend, func(t *testing.T) {
			a := NewAnalyzer(WithSolverBackend(backend))
			sum, err := a.Execute(context.Background(), src, "p")
			if err != nil {
				t.Fatal(err)
			}
			// The hard branch is Unknown -> treated unsat -> pruned; only the
			// else-path remains, for every backend.
			if len(sum.Paths) != 1 {
				t.Fatalf("paths = %d, want 1 (hard branch pruned as unsat)", len(sum.Paths))
			}
			if sum.Stats.Solver.Unknown == 0 {
				t.Errorf("stats must count the Unknown verdict, got %+v", sum.Stats.Solver)
			}
			if sum.Stats.Solver.Backend != backend {
				t.Errorf("stats backend = %q, want %q", sum.Stats.Solver.Backend, backend)
			}
		})
	}
}

func TestBackendsProduceIdenticalAffectedPathSets(t *testing.T) {
	backends := []string{"interval", "interval-noreuse", "bitvec"}
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			for _, v := range art.Versions {
				v := v
				t.Run(v.Name, func(t *testing.T) {
					t.Parallel()
					modSrc := art.SourceFor(v)
					want := affectedPathSet(t, backends[0], art.Base, modSrc, art.Proc)
					for _, backend := range backends[1:] {
						got := affectedPathSet(t, backend, art.Base, modSrc, art.Proc)
						if !equalPathSets(want, got) {
							t.Errorf("%s %s: %s reports %d paths, %s reports %d — affected-path sets differ",
								art.Name, v.Name, backends[0], len(want), backend, len(got))
						}
					}
				})
			}
		})
	}
}
