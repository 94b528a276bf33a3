package dise

// Facade-level coverage of the exploration options: the committed
// model-reuse counter across solver backends, and the solver-node and merge
// budgets wired through the Analyzer.

import (
	"context"
	"sync"
	"testing"

	"dise/internal/artifacts"
)

// TestModelReusesCommittedOnArtifacts pins solver_stats.model_reuses, the
// branch decisions a state's witness answered with no Check, as a committed
// counter: on every artifact version it is the same for every backend. Over
// the 40 versions it equals the default run's solver calls, 11,137: the
// witness decides one arm of each conditional, and a Check decides the
// other.
func TestModelReusesCommittedOnArtifacts(t *testing.T) {
	backends := []string{"interval", "bitvec"} // the default first
	var mu sync.Mutex
	reuses, calls := 0, 0
	t.Run("versions", func(t *testing.T) {
		for _, art := range artifacts.All() {
			for _, v := range art.Versions {
				t.Run(art.Name+"/"+v.Name, func(t *testing.T) {
					t.Parallel()
					req := Request{BaseSrc: art.Base, ModSrc: art.SourceFor(v), Proc: art.Proc}
					var ref Stats
					for i, backend := range backends {
						res, err := NewAnalyzer(WithSolverBackend(backend)).Analyze(context.Background(), req)
						if err != nil {
							t.Fatalf("%s: %v", backend, err)
						}
						if i == 0 {
							ref = res.Stats
						} else if got, want := res.Stats.Solver.ModelReuses, ref.Solver.ModelReuses; got != want {
							t.Errorf("%s: model_reuses = %d, want %d as in %s", backend, got, want, backends[0])
						}
					}
					mu.Lock()
					reuses += ref.Solver.ModelReuses
					calls += ref.SolverCalls
					mu.Unlock()
				})
			}
		}
	})
	if reuses != calls || reuses != 11137 {
		t.Errorf("model_reuses sum to %d over the artifact versions, want 11137, the solver calls (%d)", reuses, calls)
	}
}

// TestSolverNodeBudgetReachesSolver pins WithSolverNodeBudget's wiring: a
// one-node budget leaves some WBS checks Unknown, which the engine treats as
// unsatisfiable (paper §4.1), so those branches and their paths drop out.
func TestSolverNodeBudgetReachesSolver(t *testing.T) {
	art, _ := artifacts.ByName("WBS")
	count := func(opts ...Option) (paths, unknowns int) {
		an := NewAnalyzer(opts...)
		for _, v := range art.Versions {
			res, err := an.Analyze(context.Background(), Request{BaseSrc: art.Base, ModSrc: art.SourceFor(v), Proc: art.Proc})
			if err != nil {
				t.Fatalf("%s: %v", v.Name, err)
			}
			paths += len(res.Paths)
			unknowns += res.Stats.Solver.Unknown
		}
		return paths, unknowns
	}
	paths, unknowns := count()
	if unknowns != 0 {
		t.Fatalf("default budget: %d unknown checks, want 0", unknowns)
	}
	budgetPaths, budgetUnknowns := count(WithSolverNodeBudget(1))
	t.Logf("node budget 1: %d unknowns, %d paths (default: %d)", budgetUnknowns, budgetPaths, paths)
	if budgetUnknowns == 0 || budgetPaths >= paths {
		t.Errorf("node budget 1: %d unknowns and %d paths, want > 0 unknowns and fewer than the default's %d paths",
			budgetUnknowns, budgetPaths, paths)
	}
}

// TestMergeBudgetCapsMerges pins WithMergeBudget's wiring: under unbounded
// merging, a budget of b fusion operations performs exactly b merges on
// OAE v1, which merges more than three times without one.
func TestMergeBudgetCapsMerges(t *testing.T) {
	art, _ := artifacts.ByName("OAE")
	v, _ := art.Find("v1")
	req := Request{BaseSrc: art.Base, ModSrc: art.SourceFor(v), Proc: art.Proc}
	merges := func(opts ...Option) int {
		res, err := NewAnalyzer(append([]Option{WithStateMerging(MergeUnbounded)}, opts...)...).Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Merge.Merges
	}
	unbounded := merges()
	t.Logf("unbudgeted run: %d merges", unbounded)
	if unbounded <= 3 {
		t.Fatalf("unbudgeted run merged %d times, want more than 3", unbounded)
	}
	for _, budget := range []int{1, 3} {
		if got := merges(WithMergeBudget(budget)); got != budget {
			t.Errorf("merge budget %d: %d merges", budget, got)
		}
	}
}
