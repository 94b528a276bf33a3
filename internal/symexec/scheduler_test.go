package symexec

import (
	"fmt"
	"reflect"
	"testing"
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
// exploration the scheduler replaced. The scheduler must reproduce it byte
// for byte: same paths, same order, same counters.
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
func pathKey(p Path) string { return fmt.Sprintf("%s %v err=%v", p.PCString, p.Trace(), p.Err) }

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

// TestSchedulerDFSMatchesRecursiveOracle pins the full-SE scheduler to the
// recursive oracle: exactly the oracle's paths, in its depth-first order,
// with its whole Stats (every engine and solver counter; Time aside).
func TestSchedulerDFSMatchesRecursiveOracle(t *testing.T) {
	for _, subject := range schedulerSubjects {
		t.Run(subject.name, func(t *testing.T) {
			config := Config{DepthBound: 40}
			want := oracleRunFull(newEngine(t, subject.src, subject.proc, config))
			got := newEngine(t, subject.src, subject.proc, config).RunFull()
			if !reflect.DeepEqual(pathKeys(got), pathKeys(want)) {
				t.Errorf("emission differs from the depth-first oracle:\n got %v\nwant %v", pathKeys(got), pathKeys(want))
			}
			if gs := untimed(got.Stats); gs != want.Stats {
				t.Errorf("stats %+v, oracle %+v", gs, want.Stats)
			}
		})
	}
}

// TestSchedulerParallelismEquivalence pins the scheduler's output under
// parallelism across analyses, the only parallelism left: with 1 or 4
// engines exploring the same subject at once, each on its own goroutine and
// all sharing the process-wide intern table (as batch analyses and service
// requests do), every run emits exactly the recursive oracle's paths, in
// depth-first order, with its whole Stats. Count-only runs
// (ExploreOptions.CountOnly) run alongside; they keep the counters and
// collect no paths.
func TestSchedulerParallelismEquivalence(t *testing.T) {
	type run struct {
		countOnly bool
		summary   *Summary
	}
	for _, subject := range schedulerSubjects {
		t.Run(subject.name, func(t *testing.T) {
			config := Config{DepthBound: 40}
			reference := oracleRunFull(newEngine(t, subject.src, subject.proc, config))
			want := pathKeys(reference)
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("par%d", par)
				// Engines are built here, on the test goroutine, since
				// newEngine may stop the test.
				runs := make(chan run, 2*par)
				for i := 0; i < par; i++ {
					full := newEngine(t, subject.src, subject.proc, config)
					counting := NewExplorer(newEngine(t, subject.src, subject.proc, config), ExploreOptions{CountOnly: true})
					go func() { runs <- run{summary: full.RunFull()} }()
					go func() { runs <- run{countOnly: true, summary: counting.Run()} }()
				}
				for i := 0; i < 2*par; i++ {
					r := <-runs
					if gs := untimed(r.summary.Stats); gs != reference.Stats {
						t.Errorf("%s (count-only %v): stats %+v, oracle %+v", name, r.countOnly, gs, reference.Stats)
					}
					if r.countOnly {
						if len(r.summary.Paths) != 0 {
							t.Errorf("%s: count-only run collected %d paths, want 0", name, len(r.summary.Paths))
						}
					} else if got := pathKeys(r.summary); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: emission differs from the depth-first oracle:\n got %v\nwant %v", name, got, want)
					}
				}
			}
		})
	}
}

// untimed returns s with the wall-clock Time zeroed, the one field of Stats
// that differs between two runs of the same exploration.
func untimed(s Stats) Stats {
	s.Time = 0
	return s
}

// TestMaxStatesValveUnderScheduler pins the safety-valve behavior through
// the scheduler: the run stops, MaxStatesHit is set, and the trip point and
// counters match the recursive engine's.
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
	if gs := untimed(got.Stats); gs != want.Stats {
		t.Errorf("stats %+v, oracle %+v", gs, want.Stats)
	}
}
