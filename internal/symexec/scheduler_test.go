package symexec

import (
	"fmt"
	"reflect"
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

// --- scheduler vs. pre-refactor recursion ------------------------------------

// oracleRunFull is a transliteration of the recursive depth-first
// exploration the scheduler replaced. The scheduler at parallelism 1 must
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

// TestSchedulerParallelismEquivalence pins the full-SE scheduler
// equivalence: at every parallelism level the scheduler emits exactly the
// recursive oracle's paths, in the oracle's depth-first order (sequential
// runs by popping the stack, parallel runs by canonical assembly), with the
// same committed counters. Count-only runs (ExploreOptions.CountOnly) keep
// the counters and collect no paths.
func TestSchedulerParallelismEquivalence(t *testing.T) {
	for _, subject := range schedulerSubjects {
		t.Run(subject.name, func(t *testing.T) {
			reference := oracleRunFull(newEngine(t, subject.src, subject.proc, Config{DepthBound: 40}))
			want := pathKeys(reference)
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("par%d", par)
				config := Config{DepthBound: 40, ExploreParallelism: par}
				sum := newEngine(t, subject.src, subject.proc, config).RunFull()
				if got := pathKeys(sum); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: emission differs from the depth-first oracle:\n got %v\nwant %v", name, got, want)
				}
				if gc, rc := coreOf(sum.Stats), coreOf(reference.Stats); gc != rc {
					t.Errorf("%s: core stats %+v, want %+v", name, gc, rc)
				}
				if sum.Stats.PathsExplored != reference.Stats.PathsExplored {
					t.Errorf("%s: paths explored %d, want %d",
						name, sum.Stats.PathsExplored, reference.Stats.PathsExplored)
				}
				// A count-only exploration does the same work and collects
				// nothing.
				counted := NewExplorer(newEngine(t, subject.src, subject.proc, config), ExploreOptions{CountOnly: true}).Run()
				if len(counted.Paths) != 0 || coreOf(counted.Stats) != coreOf(reference.Stats) ||
					counted.Stats.PathsExplored != reference.Stats.PathsExplored {
					t.Errorf("%s: count-only run: %d paths, core %+v, %d explored; want 0, %+v, %d", name,
						len(counted.Paths), coreOf(counted.Stats), counted.Stats.PathsExplored,
						coreOf(reference.Stats), reference.Stats.PathsExplored)
				}
			}
		})
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
