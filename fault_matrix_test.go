package dise

// The fault-injection acceptance gate of the solver-resilience work: under
// every chaos schedule — crashing, hanging, garbage-talking and
// write-failing external solvers, and a missing binary — the affected-path
// sets of all 40 artifact versions must stay byte-identical to the plain
// interval backend's. External failure may only ever move the degradation
// counters, never a verdict.

import (
	"sync"
	"testing"
	"time"

	"dise/internal/artifacts"
	"dise/internal/constraint"
	"dise/internal/constraint/chaos"
	"dise/internal/constraint/smtlib"
)

var registerChaosMatrix sync.Once

// chaosMatrixBackends are the solver configurations the matrix drives; the
// chaos-* entries are registered on first use.
var chaosMatrixBackends = []string{
	"smtlib",          // real solver when one is on PATH, pure fallback otherwise
	"chaos-nobinary",  // solver path that cannot exist
	"chaos-crash",     // process exits on every 3rd check-sat
	"chaos-hang",      // process goes silent on every 3rd check-sat
	"chaos-garbage",   // process answers nonsense on every 3rd check-sat
	"chaos-err-write", // stack-sync writes fail on schedule
}

func registerChaosMatrixBackends() {
	registerChaosMatrix.Do(func() {
		for _, fault := range []chaos.Fault{chaos.Crash, chaos.Hang, chaos.Garbage, chaos.ErrWrite} {
			launch := chaos.Transport(chaos.Plan{Fault: fault, EveryN: 3})
			constraint.Register("chaos-"+string(fault), func(o constraint.Options) (constraint.Backend, error) {
				o.SMT.Launch = launch
				o.SMT.CheckTimeout = 20 * time.Millisecond
				o.SMT.RestartBackoff = time.Millisecond
				return smtlib.New(o)
			})
		}
		constraint.Register("chaos-nobinary", func(o constraint.Options) (constraint.Backend, error) {
			o.SMT.SolverPath = "/nonexistent/bin/smt-solver"
			return smtlib.New(o)
		})
	})
}

// TestFaultMatrixVerdictEquivalence runs every artifact version under every
// fault configuration and requires the interval backend's affected-path
// set. The supervision ladder (deadline, kill, restart, breaker, disable)
// may fire freely underneath — it is exactly what keeps these runs correct.
func TestFaultMatrixVerdictEquivalence(t *testing.T) {
	registerChaosMatrixBackends()
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			for _, v := range art.Versions {
				v := v
				t.Run(v.Name, func(t *testing.T) {
					t.Parallel()
					modSrc := art.SourceFor(v)
					want := affectedPathSet(t, "interval", art.Base, modSrc, art.Proc)
					for _, backend := range chaosMatrixBackends {
						got := affectedPathSet(t, backend, art.Base, modSrc, art.Proc)
						if !equalPathSets(want, got) {
							t.Errorf("%s %s: %s reports %d paths, interval reports %d — external failure changed a verdict",
								art.Name, v.Name, backend, len(got), len(want))
						}
					}
				})
			}
		})
	}
}

// TestFaultMatrixDegradationVisible pins the other half of the contract:
// the degraded runs are not silently identical — their stats carry the
// degradation trace (every external check was non-definitive, crashes
// consumed the restart budget) while the verdict-bearing counters match a
// clean run's workload.
func TestFaultMatrixDegradationVisible(t *testing.T) {
	registerChaosMatrixBackends()
	art, ok := artifacts.ByName("WBS")
	if !ok {
		t.Fatal("WBS artifact missing")
	}
	modSrc := art.SourceFor(art.Versions[0])

	run := func(backend string) SolverStats {
		a := NewAnalyzer(WithSolverBackend(backend))
		res, err := a.Analyze(t.Context(), Request{BaseSrc: art.Base, ModSrc: modSrc, Proc: art.Proc})
		if err != nil {
			t.Fatalf("[%s] analyze: %v", backend, err)
		}
		return res.Stats.Solver
	}

	nob := run("chaos-nobinary")
	if nob.ExtUnknowns == 0 || nob.FallbackSolves == 0 {
		t.Fatalf("no-binary run shows no degradation: %+v", nob)
	}
	if nob.ExtAnswers != 0 {
		t.Fatalf("no-binary run claims external answers: %+v", nob)
	}
	crash := run("chaos-crash")
	if crash.ExtUnknowns == 0 || crash.FallbackSolves == 0 {
		t.Fatalf("crash run shows no degradation: %+v", crash)
	}
	if crash.ExtRestarts == 0 && crash.ExtBreakerTrips == 0 {
		t.Fatalf("crashing solver neither restarted nor tripped the breaker: %+v", crash)
	}
}
