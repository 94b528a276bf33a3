package constraint

import (
	"math"
	"testing"
	"time"

	"dise/internal/solver"
	"dise/internal/sym"
)

func mustBuilder(t *testing.T, width int) *Builder {
	t.Helper()
	b, err := NewBuilder(width)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuilderHashConsingAndFolding(t *testing.T) {
	b := mustBuilder(t, 32)
	x := b.Var("X")
	if b.Var("X") != x {
		t.Error("variables must be interned")
	}
	e1 := b.Add(x, b.Const(1))
	e2 := b.Add(x, b.Const(1))
	if e1 != e2 {
		t.Error("structurally equal terms must be the same pointer")
	}
	// Constant folding, with wraparound at the width.
	if got := b.Add(b.Const(1), b.Const(2)); got.Op != BVConst || got.Val != 3 {
		t.Errorf("1+2 must fold to 3, got %v", got)
	}
	maxs := b.Const(b.MaxS())
	if got := b.Add(maxs, b.Const(1)); got.Op != BVConst || b.ToSigned(got.Val) != b.MinS() {
		t.Errorf("MaxS+1 must fold to MinS (wrap), got %v", got)
	}
	// Division by zero must stay symbolic (it is a run-time error, not a value).
	if got := b.SDiv(b.Const(1), b.Const(0)); got.Op != BVSDiv {
		t.Errorf("1/0 must not fold, got %v", got)
	}
}

func TestBuilderEvalWraparound(t *testing.T) {
	b := mustBuilder(t, 8)
	x := b.Var("X")
	env := map[string]uint64{"X": b.Mask(200)}
	cases := []struct {
		name string
		e    *BVExpr
		want int64
	}{
		{"add wraps", b.Add(x, b.Const(100)), b.ToSigned(b.Mask(300))}, // 300 mod 256 = 44
		{"mul wraps", b.Mul(x, b.Const(2)), b.ToSigned(b.Mask(400))},   // 400 mod 256 = -112 signed
		{"neg", b.Neg(b.Const(1)), -1},
		{"slt: 200 is -56 signed < 100", b.Slt(x, b.Const(100)), 1},
	}
	for _, tc := range cases {
		v, err := b.Eval(tc.e, env)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := int64(v)
		if !tc.e.Op.IsBool() {
			got = b.ToSigned(v)
		}
		if got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, got, tc.want)
		}
	}
	if _, err := b.Eval(b.SDiv(x, b.Const(0)), env); err == nil {
		t.Error("division by zero must error")
	}
}

func TestBitvecWraparoundScenario(t *testing.T) {
	// X + 1 < X (signed) is satisfiable ONLY with wraparound: X = MaxS.
	// This is the scenario class the unbounded interval domain cannot
	// express — its saturating arithmetic proves X + 1 > X for all X.
	b := mustBackend(t, BackendBitvec, Options{Width: 16, Domains: map[string]solver.Interval{
		"X": {Lo: -32768, Hi: 32767},
	}})
	x := sym.V("X")
	b.Push()
	b.Assert(sym.Cmp(sym.OpLT, sym.Add(x, sym.One), x))
	res := b.Check()
	if !res.Sat {
		t.Fatalf("X+1 < X must be sat under wraparound (result %+v, stats %+v)", res, b.Stats())
	}
	if got := res.Model.Map()["X"]; got != 32767 {
		t.Errorf("model X = %d, want 32767 (MaxS)", got)
	}

	// The interval backend, by design, says unsat for the same query.
	iv := mustBackend(t, BackendInterval, Options{Domains: map[string]solver.Interval{
		"X": {Lo: -32768, Hi: 32767},
	}})
	iv.Push()
	iv.Assert(sym.Cmp(sym.OpLT, sym.Add(x, sym.One), x))
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

func TestBitvecCacheKeyedByWidth(t *testing.T) {
	// Regression: two bitvec backends of different widths sharing one
	// PrefixCache must not exchange verdicts. X + 100 < X over [0,100] is
	// sat at width 8 (X=100 wraps to -56) but unsat at width 64.
	cache := NewPrefixCache(16)
	x := sym.V("X")
	query := sym.Cmp(sym.OpLT, sym.Add(x, sym.Int(100)), x)
	doms := map[string]solver.Interval{"X": {Lo: 0, Hi: 100}}
	check := func(width int) Result {
		b := mustBackend(t, BackendBitvec, Options{Width: width, Domains: doms, Cache: cache})
		b.Push()
		b.Assert(query)
		return b.Check()
	}
	if res := check(8); !res.Sat {
		t.Errorf("width 8: X+100 < X must be sat (wraparound), got %+v", res)
	}
	if res := check(64); res.Sat {
		t.Errorf("width 64: X+100 < X must be unsat, got %+v (cache key missing width?)", res)
	}
}

func TestBitvecWidthValidation(t *testing.T) {
	if _, err := New(BackendBitvec, Options{Width: 4}); err == nil {
		t.Error("width 4 must be rejected")
	}
	if _, err := New(BackendBitvec, Options{Width: 128}); err == nil {
		t.Error("width 128 must be rejected")
	}
}
