package chaos

import (
	"testing"
	"time"

	"dise/internal/constraint"
	"dise/internal/constraint/smtlib"
	"dise/internal/solver"
	"dise/internal/sym"
)

func smtOpts(plan Plan) constraint.Options {
	return constraint.Options{
		Domains: map[string]solver.Interval{"X": {Lo: 0, Hi: 10}},
		SMT: constraint.SMTOptions{
			Launch:         Transport(plan),
			CheckTimeout:   50 * time.Millisecond,
			RestartBackoff: time.Millisecond,
		},
	}
}

func xGT(v int64) sym.Expr { return sym.Cmp(sym.OpGT, sym.V("X"), sym.Int(v)) }

// checkBoth asserts the stack on a chaos-driven smtlib backend and a bare
// interval backend and requires identical verdicts.
func verdictsMatch(t *testing.T, plan Plan, rounds int) constraint.Stats {
	t.Helper()
	b, err := smtlib.New(smtOpts(plan))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := constraint.New(constraint.BackendInterval,
		constraint.Options{Domains: map[string]solver.Interval{"X": {Lo: 0, Hi: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		b.Push()
		ref.Push()
		c := xGT(5)
		if i%2 == 1 {
			c = xGT(50)
		}
		b.Assert(c)
		ref.Assert(c)
		got, want := b.Check(), ref.Check()
		if got.Sat != want.Sat || got.Unknown != want.Unknown {
			t.Fatalf("plan %v round %d: chaos %+v vs interval %+v", plan, i, got, want)
		}
		b.Pop()
		ref.Pop()
		time.Sleep(2 * time.Millisecond) // let tiny backoffs expire
	}
	return b.Stats()
}

func TestTransportCrashSchedule(t *testing.T) {
	st := verdictsMatch(t, Plan{Fault: Crash, EveryN: 2}, 8)
	if st.ExtRestarts < 2 {
		t.Fatalf("crash schedule caused no restarts: %+v", st)
	}
	if st.ExtUnknowns == 0 || st.FallbackSolves != 8 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTransportGarbageSchedule(t *testing.T) {
	st := verdictsMatch(t, Plan{Fault: Garbage, EveryN: 3}, 9)
	if st.ExtUnknowns != 9 {
		t.Fatalf("every check should degrade (healthy replies are unknown): %+v", st)
	}
	if st.ExtRestarts < 2 {
		t.Fatalf("garbage replies should kill and respawn: %+v", st)
	}
}

func TestTransportHangSchedule(t *testing.T) {
	st := verdictsMatch(t, Plan{Fault: Hang, EveryN: 4}, 8)
	if st.ExtTimeouts < 2 {
		t.Fatalf("hangs should hit the deadline: %+v", st)
	}
}

func TestTransportWriteErrorSchedule(t *testing.T) {
	st := verdictsMatch(t, Plan{Fault: ErrWrite, EveryN: 2}, 8)
	if st.ExtRestarts < 2 {
		t.Fatalf("write errors should count as failures and respawn: %+v", st)
	}
}

func TestTransportHealthySchedule(t *testing.T) {
	// EveryN=0 never faults: a clean conversation that still answers only
	// "unknown", so the fallback decides everything with one spawn.
	st := verdictsMatch(t, Plan{}, 6)
	if st.ExtRestarts != 1 || st.ExtBreakerTrips != 0 {
		t.Fatalf("healthy transport restarted or tripped: %+v", st)
	}
	if st.ExtSolves != 6 || st.FallbackSolves != 6 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestWrapCrashPanics(t *testing.T) {
	inner, err := constraint.New(constraint.BackendInterval,
		constraint.Options{Domains: map[string]solver.Interval{"X": {Lo: 0, Hi: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	b := Wrap(inner, Plan{Fault: Crash, EveryN: 1})
	b.Push()
	b.Assert(xGT(5))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Check()
}
