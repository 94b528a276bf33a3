package symexec

import (
	"strings"
	"testing"

	"dise/internal/cfg"
	"dise/internal/lang/parser"
)

func TestStepReportsInfeasibleTargets(t *testing.T) {
	// Over the non-negative domain, x < 0 is infeasible: the true branch
	// target must be reported, the false branch taken.
	src := `proc p(int x) {
		if (x < 0) {
			neg = 1;
		} else {
			neg = 0;
		}
	}`
	e := newEngine(t, src, "p", Config{})
	s := e.InitialState()
	s = e.Successors(s)[0] // begin -> cond
	step := e.Step(s)
	if len(step.Feasible) != 1 {
		t.Fatalf("feasible = %d, want 1", len(step.Feasible))
	}
	if len(step.InfeasibleTargets) != 1 {
		t.Fatalf("infeasible targets = %d, want 1", len(step.InfeasibleTargets))
	}
	if got := step.InfeasibleTargets[0].Text(); !strings.Contains(got, "neg = 1") {
		t.Errorf("infeasible target = %q, want the true-branch write", got)
	}
}

func TestStepReportsFoldedFalseTargets(t *testing.T) {
	// The condition folds to a constant under the environment: the untaken
	// branch is reported as infeasible without a solver call.
	src := `proc p(int x) {
		k = 3;
		if (k > 5) {
			big = 1;
		} else {
			big = 0;
		}
	}`
	e := newEngine(t, src, "p", Config{})
	s := e.InitialState()
	s = e.Successors(s)[0] // begin -> k = 3
	s = e.Successors(s)[0] // k = 3 -> cond
	before := e.Backend.Stats().Checks
	step := e.Step(s)
	if got := e.Backend.Stats().Checks; got != before {
		t.Errorf("folded branch consulted the solver (%d calls)", got-before)
	}
	if len(step.Feasible) != 1 || len(step.InfeasibleTargets) != 1 {
		t.Fatalf("step = %d feasible / %d infeasible, want 1/1",
			len(step.Feasible), len(step.InfeasibleTargets))
	}
	if got := step.InfeasibleTargets[0].Text(); !strings.Contains(got, "big = 1") {
		t.Errorf("folded-away target = %q, want the true-branch write", got)
	}
}

func TestModelCacheAvoidsSolverCalls(t *testing.T) {
	// A straight chain of conditions all satisfied by the zero model: the
	// true branches need no solver calls, only the complements do.
	src := `proc p(int a, int b, int c) {
		if (a >= 0) { x1 = 1; } else { x1 = 0; }
		if (b >= 0) { x2 = 1; } else { x2 = 0; }
		if (c >= 0) { x3 = 1; } else { x3 = 0; }
	}`
	e := newEngine(t, src, "p", Config{})
	summary := e.RunFull()
	// a/b/c >= 0 always true over the domain; complements infeasible.
	if len(summary.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(summary.Paths))
	}
	st := e.Stats()
	if st.Solver.ModelReuses != 3 {
		t.Errorf("witness decisions = %d, want 3 (one per true branch)", st.Solver.ModelReuses)
	}
	// Exactly the three negated branches required solving.
	if st.Solver.Checks != 3 {
		t.Errorf("solver checks = %d, want 3 (one per infeasible complement)", st.Solver.Checks)
	}
}

func TestEngineRejectsCalls(t *testing.T) {
	src := `
proc helper() { skip; }
proc main() { helper(); }
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(prog, "main", Config{})
	if err == nil || !strings.Contains(err.Error(), "inline") {
		t.Errorf("engine must reject un-inlined calls, got %v", err)
	}
}

func TestCFGBuildPanicsOnCalls(t *testing.T) {
	prog, err := parser.Parse(`
proc helper() { skip; }
proc main() { helper(); }
`)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cfg.Build must panic on call statements")
		}
		if !strings.Contains(r.(string), "inline") {
			t.Errorf("panic message %q should mention inlining", r)
		}
	}()
	cfg.Build(prog.Proc("main"))
}
