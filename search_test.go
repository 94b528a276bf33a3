package dise

// Facade-level coverage of the exploration scheduler: the parallelism
// option, streaming and cancellation under parallel exploration, and the
// stats echo.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"dise/internal/artifacts"
)

// TestAnalyzeStrategyParallelismIdenticalResults is the facade half of the
// equivalence gate: one and four exploration workers report the same
// affected path conditions, in the same order, with the same committed
// exploration counters.
func TestAnalyzeStrategyParallelismIdenticalResults(t *testing.T) {
	a, _ := artifacts.ByName("ASW")
	v, _ := a.Find("v6")
	req := Request{BaseSrc: a.Base, ModSrc: a.SourceFor(v), Proc: a.Proc}
	ref, err := NewAnalyzer().Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		res, err := NewAnalyzer(WithExploreParallelism(par)).Analyze(context.Background(), req)
		if err != nil {
			t.Fatalf("par%d: %v", par, err)
		}
		if !reflect.DeepEqual(res.PathConditions(), ref.PathConditions()) {
			t.Errorf("par%d: path conditions differ from default run", par)
		}
		if res.Stats.StatesExplored != ref.Stats.StatesExplored {
			t.Errorf("par%d: states explored = %d, want %d",
				par, res.Stats.StatesExplored, ref.Stats.StatesExplored)
		}
		if res.Stats.ExploreParallelism != par {
			t.Errorf("par%d: stats echo %d workers", par, res.Stats.ExploreParallelism)
		}
	}
}

// TestModelReusesCommittedOnArtifacts pins solver_stats.model_reuses, the
// branch decisions a state's witness answered with no Check, as a committed
// counter: on every artifact version it is the same for every worker count
// and backend. Over the 40 versions it equals the sequential
// run's solver calls, 11,137: the witness decides one arm of each
// conditional, and a Check decides the other.
func TestModelReusesCommittedOnArtifacts(t *testing.T) {
	type config struct {
		backend string
		workers int
	}
	var configs []config // the default, interval/1, first
	for _, backend := range []string{"interval", "bitvec"} {
		for _, workers := range []int{1, 4} {
			configs = append(configs, config{backend, workers})
		}
	}
	var mu sync.Mutex
	reuses, calls := 0, 0
	t.Run("versions", func(t *testing.T) {
		for _, art := range artifacts.All() {
			for _, v := range art.Versions {
				t.Run(art.Name+"/"+v.Name, func(t *testing.T) {
					t.Parallel()
					req := Request{BaseSrc: art.Base, ModSrc: art.SourceFor(v), Proc: art.Proc}
					var ref Stats
					for i, c := range configs {
						an := NewAnalyzer(WithSolverBackend(c.backend), WithExploreParallelism(c.workers))
						res, err := an.Analyze(context.Background(), req)
						if err != nil {
							t.Fatalf("%+v: %v", c, err)
						}
						if i == 0 {
							ref = res.Stats
						} else if got, want := res.Stats.Solver.ModelReuses, ref.Solver.ModelReuses; got != want {
							t.Errorf("%+v: model_reuses = %d, want %d as in %+v", c, got, want, configs[0])
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

// TestExecuteParallelMatchesSequential covers full symbolic execution — the
// workload parallel exploration is built for — on the widest artifact
// version available in a unit test: the paths must be identical (in
// canonical order) to the sequential run.
func TestExecuteParallelMatchesSequential(t *testing.T) {
	a, _ := artifacts.ByName("WBS")
	seq, err := NewAnalyzer().Execute(context.Background(), a.Base, a.Proc)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewAnalyzer(WithExploreParallelism(4)).Execute(context.Background(), a.Base, a.Proc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.PathConditions(), seq.PathConditions()) {
		t.Error("parallel full SE must emit the sequential (canonical) path order")
	}
}

// TestAnalyzeStreamEarlyStopParallel pins that a streaming consumer can
// stop a parallel exploration: the committed walk halts, the speculative
// workers drain, and the call returns without deadlock.
func TestAnalyzeStreamEarlyStopParallel(t *testing.T) {
	a, _ := artifacts.ByName("OAE")
	v := a.Versions[0]
	an := NewAnalyzer(WithExploreParallelism(4))
	delivered := 0
	res, err := an.AnalyzeStream(context.Background(),
		Request{BaseSrc: a.Base, ModSrc: a.SourceFor(v), Proc: a.Proc},
		func(PathInfo) bool {
			delivered++
			return delivered < 3
		})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3 (stop after third path)", delivered)
	}
	if len(res.Paths) != 3 {
		t.Fatalf("summary holds %d paths, want the 3 delivered before the stop", len(res.Paths))
	}
}

// TestCancellationParallelExploration verifies context cancellation reaches
// every exploration worker: a cancelled parallel request fails with Kind
// Cancelled instead of completing.
func TestCancellationParallelExploration(t *testing.T) {
	a, _ := artifacts.ByName("OAE")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	an := NewAnalyzer(WithExploreParallelism(4))
	_, err := an.Execute(ctx, a.Base, a.Proc)
	var de *Error
	if !errors.As(err, &de) || de.Kind != Cancelled {
		t.Fatalf("err = %v, want *Error{Kind: Cancelled}", err)
	}
}
