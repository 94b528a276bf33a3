package constraint

import (
	"math"
	"testing"
	"time"

	"dise/internal/solver"
	"dise/internal/sym"
)

func TestBitvecWraparoundScenario(t *testing.T) {
	// Each query is satisfiable ONLY with 64-bit wraparound — the scenario
	// class the unbounded interval domain cannot express: its saturating
	// arithmetic proves X + 1 > X for all X.
	maxS := int64(math.MaxInt64)
	doms := map[string]solver.Interval{"X": {Lo: maxS - 10, Hi: maxS}}
	x := sym.V("X")
	cases := []struct {
		name  string
		query sym.Expr
		want  int64
	}{
		{"X+1 < X", sym.Cmp(sym.OpLT, sym.Add(x, sym.One), x), maxS},
		{"X*2 < 0", sym.Cmp(sym.OpLT, sym.Mul(x, sym.Int(2)), sym.Zero), maxS - 10},
		// X = MaxS-10 makes X+11 MinInt64, and -MinInt64 wraps to MinInt64.
		{"-(X+11) > 0", sym.Cmp(sym.OpGT, sym.NegE(sym.Add(x, sym.Int(11))), sym.Zero), maxS - 9},
	}
	for _, tc := range cases {
		b := mustBackend(t, BackendBitvec, Options{Domains: doms})
		b.Push()
		b.Assert(tc.query)
		res := b.Check()
		if !res.Sat {
			t.Errorf("%s must be sat under wraparound (result %+v, stats %+v)", tc.name, res, b.Stats())
			continue
		}
		if got := res.Model.Map()["X"]; got != tc.want {
			t.Errorf("%s: model X = %d, want %d", tc.name, got, tc.want)
		}
	}

	// The interval backend, by design, says unsat for X+1 < X.
	iv := mustBackend(t, BackendInterval, Options{Domains: doms})
	iv.Push()
	iv.Assert(cases[0].query)
	if res := iv.Check(); res.Sat || res.Unknown {
		t.Errorf("interval backend must refute X+1 < X (unbounded semantics), got %+v", res)
	}
}

func TestBitvecDivisionSemantics(t *testing.T) {
	// X / Y == 3 ∧ Y == 0 is unsat: division by zero fails concretely.
	x, y := sym.V("X"), sym.V("Y")
	b := mustBackend(t, BackendBitvec, Options{Domains: map[string]solver.Interval{
		"X": {Lo: 0, Hi: 10}, "Y": {Lo: 0, Hi: 0},
	}})
	b.Push()
	b.Assert(sym.Cmp(sym.OpEQ, sym.Div(x, y), sym.Int(3)))
	if res := b.Check(); res.Sat {
		t.Error("division by zero must make the constraint unsatisfiable")
	}
	b.Pop()

	// X / 2 == 3 over [0,10]: X in {6, 7}.
	b2 := mustBackend(t, BackendBitvec, Options{Domains: map[string]solver.Interval{"X": {Lo: 0, Hi: 10}}})
	b2.Push()
	b2.Assert(sym.Cmp(sym.OpEQ, sym.Div(x, sym.Int(2)), sym.Int(3)))
	res := b2.Check()
	if !res.Sat || res.Model.Map()["X"]/2 != 3 {
		t.Errorf("X/2 == 3 must be sat with a valid model, got %+v", res)
	}
}

func TestBitvecBoundaryDomains(t *testing.T) {
	// Regression: domains pinned at the width's signed extremes must not
	// wrap during Ne refinement or small-domain enumeration.
	maxS := int64(math.MaxInt64)
	t.Run("ne at MaxS", func(t *testing.T) {
		// X == MaxS (singleton domain) ∧ X != MaxS: must be unsat, not a
		// wrapped-open domain yielding a bogus model.
		b := mustBackend(t, BackendBitvec, Options{Domains: map[string]solver.Interval{
			"X": {Lo: maxS, Hi: maxS},
		}})
		b.Push()
		b.Assert(sym.Cmp(sym.OpNE, sym.V("X"), sym.Int(maxS)))
		if res := b.Check(); res.Sat {
			t.Errorf("X != MaxS over {MaxS} must be unsat, got Sat with model %v", res.Model)
		}
	})
	t.Run("enumeration at MaxS", func(t *testing.T) {
		// A small domain ending exactly at MaxS triggers the ascending
		// enumeration; the loop bound must not wrap past MaxS. X*X is
		// abstractly inconclusive (overflow widens to full), forcing
		// enumeration; unsat at every value.
		x := sym.V("X")
		b := mustBackend(t, BackendBitvec, Options{Domains: map[string]solver.Interval{
			"X": {Lo: maxS - 3, Hi: maxS},
		}})
		b.Push()
		b.Assert(sym.Cmp(sym.OpEQ, sym.Mul(x, x), sym.Int(5)))
		done := make(chan Result, 1)
		go func() { done <- b.Check() }()
		select {
		case res := <-done:
			if res.Sat {
				t.Errorf("X*X == 5 near MaxS must not be sat, got %+v", res)
			}
		case <-time.After(10 * time.Second): // the fixed loop finishes in microseconds
			t.Fatal("Check hung: enumeration wrapped past MaxS")
		}
	})
}

func TestBitvecCacheKeyedByBackend(t *testing.T) {
	// Regression: a bitvec and an interval backend sharing one PrefixCache
	// must not exchange verdicts. X + 1 < X over [MaxInt64-1, MaxInt64] is
	// sat under wraparound (X = MaxInt64) and unsat under the interval
	// backend's unbounded semantics. Both orders: whichever backend solves
	// first caches its verdict, and the other must not read it back.
	x := sym.V("X")
	query := sym.Cmp(sym.OpLT, sym.Add(x, sym.One), x)
	doms := map[string]solver.Interval{"X": {Lo: math.MaxInt64 - 1, Hi: math.MaxInt64}}
	for _, order := range [][]string{{BackendBitvec, BackendInterval}, {BackendInterval, BackendBitvec}} {
		cache := NewPrefixCache(16)
		for _, name := range order {
			b := mustBackend(t, name, Options{Domains: doms, Cache: cache})
			b.Push()
			b.Assert(query)
			res := b.Check()
			if want := name == BackendBitvec; res.Sat != want || res.Unknown {
				t.Errorf("order %v: %s: X+1 < X sat = %v, want %v (%+v)", order, name, res.Sat, want, res)
			}
		}
	}
}
