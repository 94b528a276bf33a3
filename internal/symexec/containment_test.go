package symexec

import (
	"sync"
	"testing"

	"dise/internal/constraint"
	"dise/internal/constraint/chaos"
	"dise/internal/sym"
)

var registerPanicky sync.Once

// registerPanickyBackends installs chaos-wrapped backends that panic out
// of Check on a deterministic schedule, for the engine's containment
// tests.
func registerPanickyBackends() {
	registerPanicky.Do(func() {
		constraint.Register("test-panic-every-2", func(o constraint.Options) (constraint.Backend, error) {
			inner, err := constraint.New(constraint.BackendInterval, o)
			if err != nil {
				return nil, err
			}
			return chaos.Wrap(inner, chaos.Plan{Fault: chaos.Crash, EveryN: 2}), nil
		})
		constraint.Register("test-panic-always", func(o constraint.Options) (constraint.Backend, error) {
			inner, err := constraint.New(constraint.BackendInterval, o)
			if err != nil {
				return nil, err
			}
			return chaos.Wrap(inner, chaos.Plan{Fault: chaos.Crash, EveryN: 1}), nil
		})
	})
}

// A backend panicking out of Check must not tear down the exploration:
// the engine recovers, counts the panic, reports Unknown for that branch,
// and finishes the run.
func TestCheckPanicContained(t *testing.T) {
	registerPanickyBackends()
	e := newEngine(t, fig2Source, "update", Config{SolverBackend: "test-panic-every-2"})
	summary := e.RunFull()
	st := e.Stats()
	if st.Solver.CheckPanics == 0 {
		t.Fatalf("no panics contained: %+v", st)
	}
	// Unknown branches are pruned, so the panicky run explores a subset.
	ref := newEngine(t, fig2Source, "update", Config{}).RunFull()
	if len(summary.Paths) > len(ref.Paths) {
		t.Fatalf("panicky run found %d paths, reference %d", len(summary.Paths), len(ref.Paths))
	}
}

// Even a backend that panics on every single Check only costs coverage.
func TestEveryCheckPanicContained(t *testing.T) {
	registerPanickyBackends()
	e := newEngine(t, fig2Source, "update", Config{SolverBackend: "test-panic-always"})
	summary := e.RunFull()
	st := e.Stats()
	if st.Solver.CheckPanics == 0 {
		t.Fatalf("no panics contained: %+v", st)
	}
	// Branches decided by the parent state's cached model never reach
	// Check, so a handful of paths can still complete; every branch that
	// did need the solver was pruned as Unknown.
	ref := newEngine(t, fig2Source, "update", Config{}).RunFull()
	if len(summary.Paths) >= len(ref.Paths) {
		t.Fatalf("paths = %d, want fewer than the reference %d", len(summary.Paths), len(ref.Paths))
	}
}

// CheckPC has the same containment as the exploration's branch checks.
func TestCheckPCPanicContained(t *testing.T) {
	registerPanickyBackends()
	e := newEngine(t, testXSource, "testX", Config{SolverBackend: "test-panic-always"})
	res := e.CheckPC([]sym.Expr{sym.Cmp(sym.OpGT, sym.V("X"), sym.Int(0))})
	if !res.Unknown {
		t.Fatalf("want Unknown from contained panic, got %+v", res)
	}
	if e.Stats().Solver.CheckPanics != 1 {
		t.Fatalf("stats: %+v", e.Stats())
	}
}

// The scheduler's merged stats must surface containment events from every
// worker fork.
func TestCheckPanicsMergedAcrossWorkers(t *testing.T) {
	registerPanickyBackends()
	e := newEngine(t, fig2Source, "update", Config{
		SolverBackend:      "test-panic-every-2",
		ExploreParallelism: 4,
	})
	summary := NewExplorer(e, ExploreOptions{}).Run()
	if summary.Stats.Solver.CheckPanics == 0 {
		t.Fatalf("merged stats lost CheckPanics: %+v", summary.Stats)
	}
}
