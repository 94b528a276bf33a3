package symexec

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dise/internal/lang/parser"
)

// loopSource exercises depth-bound hits and back edges.
const loopSource = `
proc count(int n) {
  i = 0;
  while (i < n) {
    i = i + 1;
  }
}
`

// infeasibleSource has a branch the solver must refute.
const infeasibleSource = `
proc p(int x) {
  if (x > 10) {
    if (x < 5) {
      y = 1;
    } else {
      y = 2;
    }
  } else {
    y = 3;
  }
}
`

// --- frontier unit tests -----------------------------------------------------

func popAll(f Frontier) []int {
	var out []int
	//diselint:ignore interruptloop test helper: drains a finite frontier, Pop reports exhaustion
	for {
		it, ok := f.Pop()
		if !ok {
			return out
		}
		out = append(out, int(it.Seq))
	}
}

func TestFrontierOrders(t *testing.T) {
	item := func(seq int, score int) *Item { return &Item{Seq: uint64(seq), Score: score} }

	t.Run("dfs", func(t *testing.T) {
		f := &lifoFrontier{}
		f.Push(item(1, 0))
		f.Push(item(2, 0), item(3, 0)) // sibling batch: 2 must pop before 3
		if got, want := popAll(f), []int{2, 3, 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("lifo order = %v, want %v", got, want)
		}
	})
	t.Run("bfs", func(t *testing.T) {
		f := &fifoFrontier{}
		f.Push(item(1, 0))
		f.Push(item(2, 0), item(3, 0))
		if got, want := popAll(f), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
			t.Errorf("fifo order = %v, want %v", got, want)
		}
	})
	t.Run("scored", func(t *testing.T) {
		f := newScoredFrontier(nil)
		f.Push(item(1, 5), item(2, 1), item(3, 5), item(4, 0))
		// Lowest score first; insertion order breaks ties (1 before 3).
		if got, want := popAll(f), []int{4, 2, 1, 3}; !reflect.DeepEqual(got, want) {
			t.Errorf("scored order = %v, want %v", got, want)
		}
	})
}

func TestStrategiesListedDefaultFirst(t *testing.T) {
	names := Strategies()
	if len(names) < 3 || names[0] != StrategyDFS {
		t.Fatalf("Strategies() = %v, want dfs first with at least bfs and directed", names)
	}
	if _, err := strategyFor("no-such-strategy"); err == nil {
		t.Fatal("unknown strategy must not resolve")
	}
}

// --- scheduler vs. pre-refactor recursion ------------------------------------

// oracleRunFull is a transliteration of the recursive depth-first
// exploration the scheduler replaced. The DFS strategy at parallelism 1 must
// reproduce it byte for byte: same paths, same order, same counters.
func oracleRunFull(e *Engine) *Summary {
	summary := &Summary{}
	var rec func(s *State)
	rec = func(s *State) {
		if e.interruptErr != nil || e.BudgetExhausted() {
			return
		}
		if e.Terminal(s) {
			summary.Paths = append(summary.Paths, e.Collect(s))
			return
		}
		for _, succ := range e.Successors(s) {
			rec(succ)
		}
	}
	rec(e.InitialState())
	summary.Stats = e.Stats()
	return summary
}

// pathKey renders a path for comparison: path condition plus trace, so two
// paths differing only in unconstrained suffix nodes stay distinct.
func pathKey(p Path) string { return fmt.Sprintf("%s %v err=%v", p.PCString, p.Trace, p.Err) }

func pathKeys(s *Summary) []string {
	out := make([]string, len(s.Paths))
	for i, p := range s.Paths {
		out[i] = pathKey(p)
	}
	return out
}

var schedulerSubjects = []struct {
	name, src, proc string
}{
	{"testX", testXSource, "testX"},
	{"fig2", fig2Source, "update"},
	{"loop", loopSource, "count"},
	{"infeasible", infeasibleSource, "p"},
}

func TestSchedulerDFSMatchesRecursiveOracle(t *testing.T) {
	for _, subject := range schedulerSubjects {
		t.Run(subject.name, func(t *testing.T) {
			config := Config{DepthBound: 40}
			want := oracleRunFull(newEngine(t, subject.src, subject.proc, config))
			got := newEngine(t, subject.src, subject.proc, config).RunFull()
			if !reflect.DeepEqual(pathKeys(want), pathKeys(got)) {
				t.Errorf("paths differ:\noracle: %v\nsched:  %v", pathKeys(want), pathKeys(got))
			}
			wc, gc := coreOf(want.Stats), coreOf(got.Stats)
			if wc != gc {
				t.Errorf("core stats differ: oracle %+v, scheduler %+v", wc, gc)
			}
			if want.Stats.PathsExplored != got.Stats.PathsExplored {
				t.Errorf("paths explored: oracle %d, scheduler %d",
					want.Stats.PathsExplored, got.Stats.PathsExplored)
			}
			if want.Stats.Solver.Checks != got.Stats.Solver.Checks {
				t.Errorf("solver checks: oracle %d, scheduler %d",
					want.Stats.Solver.Checks, got.Stats.Solver.Checks)
			}
		})
	}
}

// TestSchedulerStrategyAndParallelismEquivalence pins the full-SE
// scheduler-equivalence property: every strategy at every parallelism level
// produces the same path set; parallel runs additionally emit in canonical
// tree order (= the DFS sequential order), so their output is deterministic.
// Count-only runs (ExploreOptions.CountOnly) keep the counters and collect
// no paths.
func TestSchedulerStrategyAndParallelismEquivalence(t *testing.T) {
	for _, subject := range schedulerSubjects {
		t.Run(subject.name, func(t *testing.T) {
			reference := newEngine(t, subject.src, subject.proc, Config{DepthBound: 40}).RunFull()
			refOrdered := pathKeys(reference)
			refSorted := append([]string{}, refOrdered...)
			sort.Strings(refSorted)
			for _, strategy := range Strategies() {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/par%d", strategy, par)
					config := Config{DepthBound: 40, Strategy: strategy, ExploreParallelism: par}
					sum := newEngine(t, subject.src, subject.proc, config).RunFull()
					got := pathKeys(sum)
					if par > 1 {
						// Canonical assembly: exact DFS order, deterministically.
						if !reflect.DeepEqual(got, refOrdered) {
							t.Errorf("%s: parallel emission order differs from canonical:\n got %v\nwant %v",
								name, got, refOrdered)
						}
					} else {
						gotSorted := append([]string{}, got...)
						sort.Strings(gotSorted)
						if !reflect.DeepEqual(gotSorted, refSorted) {
							t.Errorf("%s: path set differs:\n got %v\nwant %v", name, gotSorted, refSorted)
						}
					}
					if gc, rc := coreOf(sum.Stats), coreOf(reference.Stats); gc != rc {
						t.Errorf("%s: core stats %+v, want %+v", name, gc, rc)
					}
					if sum.Stats.PathsExplored != reference.Stats.PathsExplored {
						t.Errorf("%s: paths explored %d, want %d",
							name, sum.Stats.PathsExplored, reference.Stats.PathsExplored)
					}
					// A count-only exploration does the same work and
					// collects nothing.
					counted := NewExplorer(newEngine(t, subject.src, subject.proc, config), ExploreOptions{CountOnly: true}).Run()
					if len(counted.Paths) != 0 || coreOf(counted.Stats) != coreOf(reference.Stats) ||
						counted.Stats.PathsExplored != reference.Stats.PathsExplored {
						t.Errorf("%s: count-only run: %d paths, core %+v, %d explored; want 0, %+v, %d", name,
							len(counted.Paths), coreOf(counted.Stats), counted.Stats.PathsExplored,
							coreOf(reference.Stats), reference.Stats.PathsExplored)
					}
				}
			}
		})
	}
}

// TestSchedulerBFSOrderIsBreadthFirst verifies the BFS strategy genuinely
// reorders sequential emission: on testX both paths complete at the same
// depth, so the order matches DFS; on a program with paths of different
// lengths the shortest completes first.
func TestSchedulerBFSOrderIsBreadthFirst(t *testing.T) {
	const src = `
proc q(int x) {
  if (x > 0) {
    if (x > 1) {
      y = 1;
    } else {
      y = 2;
    }
  } else {
    y = 3;
  }
}
`
	sum := newEngine(t, src, "q", Config{Strategy: StrategyBFS}).RunFull()
	if len(sum.Paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(sum.Paths))
	}
	// The short else-path (X <= 0) ends one level earlier and must be
	// emitted first under breadth-first order; DFS emits it last.
	if got := sum.Paths[0].PCString; got != "X <= 0" {
		t.Errorf("first BFS path = %q, want the shortest path \"X <= 0\"", got)
	}
}

// TestSchedulerParallelStatsDeterministic pins the merged-stats contract:
// the core exploration counters are identical across repeated parallel runs
// (and equal to the sequential ones), whatever the worker interleaving.
func TestSchedulerParallelStatsDeterministic(t *testing.T) {
	seq := newEngine(t, fig2Source, "update", Config{}).RunFull()
	for i := 0; i < 5; i++ {
		par := newEngine(t, fig2Source, "update", Config{ExploreParallelism: 4}).RunFull()
		if pc, sc := coreOf(par.Stats), coreOf(seq.Stats); pc != sc {
			t.Fatalf("run %d: parallel core stats %+v, want %+v", i, pc, sc)
		}
		if par.Stats.PathsExplored != seq.Stats.PathsExplored {
			t.Fatalf("run %d: paths explored %d, want %d",
				i, par.Stats.PathsExplored, seq.Stats.PathsExplored)
		}
		if par.Stats.Solver.Checks == 0 {
			t.Fatal("merged solver stats lost the per-worker counters")
		}
	}
}

func TestUnknownStrategyFailsConstruction(t *testing.T) {
	prog, err := parser.Parse(testXSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(prog, "testX", Config{Strategy: "best-first"}); err == nil {
		t.Fatal("unknown strategy must fail engine construction")
	}
}

func TestForkSharesGraphButNotSolverContext(t *testing.T) {
	e := newEngine(t, fig2Source, "update", Config{})
	f, err := e.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.Graph != e.Graph || f.Prog != e.Prog {
		t.Error("fork must share the read-only graph and program")
	}
	if f.Backend == e.Backend {
		t.Error("fork must own a fresh solver context")
	}
	if f.Stats().StatesExplored != 0 {
		t.Error("fork must start with zeroed counters")
	}
}

// TestMaxStatesValveUnderScheduler pins the safety-valve behavior through
// the worklist: the run stops, MaxStatesHit is set, and at parallelism 1 the
// trip point matches the recursive engine's.
func TestMaxStatesValveUnderScheduler(t *testing.T) {
	oracleEngine := newEngine(t, fig2Source, "update", Config{MaxStates: 10})
	want := oracleRunFull(oracleEngine)
	got := newEngine(t, fig2Source, "update", Config{MaxStates: 10}).RunFull()
	if !got.Stats.MaxStatesHit {
		t.Fatal("MaxStatesHit must be set")
	}
	if !reflect.DeepEqual(pathKeys(want), pathKeys(got)) {
		t.Errorf("budget-limited paths differ:\noracle: %v\nsched:  %v", pathKeys(want), pathKeys(got))
	}
}

func TestExploreParallelismValidated(t *testing.T) {
	prog, err := parser.Parse(testXSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, MaxExploreParallelism + 1} {
		if _, err := New(prog, "testX", Config{ExploreParallelism: n}); err == nil {
			t.Errorf("ExploreParallelism=%d must fail engine construction", n)
		}
	}
	if _, err := New(prog, "testX", Config{ExploreParallelism: MaxExploreParallelism}); err != nil {
		t.Errorf("ExploreParallelism=%d must be accepted: %v", MaxExploreParallelism, err)
	}
}
