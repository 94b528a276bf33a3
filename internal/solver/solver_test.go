package solver

import (
	"math/rand"
	"reflect"
	"testing"

	"dise/internal/sym"
)

func check(t *testing.T, cs []sym.Expr, domains map[string]Interval) Result {
	t.Helper()
	s := New(Options{})
	res := s.Check(cs, domains)
	if res.Unknown {
		t.Fatalf("solver gave up on %s", sym.Conjoin(cs))
	}
	return res
}

func x() sym.Expr { return sym.V("X") }
func y() sym.Expr { return sym.V("Y") }

func dom(lo, hi int64) map[string]Interval {
	return map[string]Interval{"X": {lo, hi}, "Y": {lo, hi}}
}

func TestCheckEmptyConjunction(t *testing.T) {
	res := check(t, nil, map[string]Interval{"X": {0, 10}})
	if !res.Sat {
		t.Fatal("empty conjunction must be sat")
	}
	if v, ok := res.Model.Value("X"); !ok || v != 0 {
		t.Errorf("model X = %v, want 0 (domain lo)", res.Model)
	}
}

func TestCheckSimpleComparisons(t *testing.T) {
	tests := []struct {
		cs  []sym.Expr
		sat bool
	}{
		{[]sym.Expr{sym.Cmp(sym.OpGT, x(), sym.Int(5))}, true},
		{[]sym.Expr{sym.Cmp(sym.OpGT, x(), sym.Int(100))}, false},
		{[]sym.Expr{sym.Cmp(sym.OpLT, x(), sym.Int(0))}, false},
		{[]sym.Expr{sym.Cmp(sym.OpEQ, x(), sym.Int(7))}, true},
		{[]sym.Expr{sym.Cmp(sym.OpNE, x(), sym.Int(7))}, true},
		{[]sym.Expr{sym.Cmp(sym.OpLE, x(), sym.Int(0)), sym.Cmp(sym.OpGE, x(), sym.Int(0))}, true},
		{[]sym.Expr{sym.Cmp(sym.OpLT, x(), sym.Int(3)), sym.Cmp(sym.OpGT, x(), sym.Int(3))}, false},
	}
	for _, tt := range tests {
		res := check(t, tt.cs, map[string]Interval{"X": {0, 100}})
		if res.Sat != tt.sat {
			t.Errorf("Check(%s) sat = %v, want %v", sym.Conjoin(tt.cs), res.Sat, tt.sat)
		}
		if res.Sat {
			verifyModel(t, tt.cs, res.Model)
		}
	}
}

// sameResult reports whether two results agree on the verdict and their
// models bind the same names to the same values, whatever their layout.
func sameResult(a, b Result) bool {
	return a.Sat == b.Sat && a.Unknown == b.Unknown && (a.Model == nil) == (b.Model == nil) &&
		reflect.DeepEqual(a.Model.Map(), b.Model.Map())
}

// verifyModel confirms the model satisfies every constraint concretely.
func verifyModel(t *testing.T, cs []sym.Expr, model *Model) {
	t.Helper()
	for _, c := range cs {
		v, err := sym.Eval(c, model)
		if err != nil {
			t.Errorf("model %v fails to evaluate %s: %v", model, c, err)
			continue
		}
		if v == 0 {
			t.Errorf("model %v does not satisfy %s", model, c)
		}
	}
}

func TestCheckMotivatingExampleArms(t *testing.T) {
	// The three arms of the paper's Fig. 2 first conditional under the
	// non-negative default domain: PedalPos <= 0 admits only 0;
	// PedalPos == 1; PedalPos > 1.
	pp := sym.V("PedalPos")
	d := map[string]Interval{"PedalPos": DefaultDomain}

	res := check(t, []sym.Expr{sym.Cmp(sym.OpLE, pp, sym.Zero)}, d)
	if !res.Sat || res.Model.Map()["PedalPos"] != 0 {
		t.Errorf("arm 1: sat=%v model=%v, want PedalPos=0", res.Sat, res.Model)
	}
	// Key feasibility fact behind the paper's 21 paths: with inputs >= 0,
	// PedalCmd + 3 == 2 is infeasible.
	pc := sym.V("PedalCmd")
	res = check(t, []sym.Expr{sym.Cmp(sym.OpEQ, sym.Add(pc, sym.Int(3)), sym.Int(2))},
		map[string]Interval{"PedalCmd": DefaultDomain})
	if res.Sat {
		t.Error("PedalCmd + 3 == 2 must be infeasible over the non-negative domain")
	}
	// ... while PedalCmd + 2 == 2 is feasible (PedalCmd = 0).
	res = check(t, []sym.Expr{sym.Cmp(sym.OpEQ, sym.Add(pc, sym.Int(2)), sym.Int(2))},
		map[string]Interval{"PedalCmd": DefaultDomain})
	if !res.Sat || res.Model.Map()["PedalCmd"] != 0 {
		t.Errorf("PedalCmd + 2 == 2: sat=%v model=%v, want PedalCmd=0", res.Sat, res.Model)
	}
}

func TestCheckLinearSystems(t *testing.T) {
	// X + Y == 10 && X - Y == 4  →  X=7, Y=3.
	cs := []sym.Expr{
		sym.Cmp(sym.OpEQ, sym.Add(x(), y()), sym.Int(10)),
		sym.Cmp(sym.OpEQ, sym.Sub(x(), y()), sym.Int(4)),
	}
	res := check(t, cs, dom(0, 100))
	if !res.Sat {
		t.Fatal("system must be sat")
	}
	if res.Model.Map()["X"] != 7 || res.Model.Map()["Y"] != 3 {
		t.Errorf("model = %v, want X=7 Y=3", res.Model)
	}

	// 2X + 3Y <= 5 && X >= 1 && Y >= 1 → unsat over non-negatives with X,Y>=1.
	cs = []sym.Expr{
		sym.Cmp(sym.OpLE, sym.Add(sym.Mul(sym.Int(2), x()), sym.Mul(sym.Int(3), y())), sym.Int(4)),
		sym.Cmp(sym.OpGE, x(), sym.One),
		sym.Cmp(sym.OpGE, y(), sym.One),
	}
	res = check(t, cs, dom(0, 100))
	if res.Sat {
		t.Errorf("2X+3Y<=4 with X,Y>=1 must be unsat, got model %v", res.Model)
	}
}

func TestCheckNotEqualChains(t *testing.T) {
	// X != 0..4 over domain [0,5] forces X = 5.
	var cs []sym.Expr
	for i := int64(0); i < 5; i++ {
		cs = append(cs, sym.Cmp(sym.OpNE, x(), sym.Int(i)))
	}
	res := check(t, cs, map[string]Interval{"X": {0, 5}})
	if !res.Sat || res.Model.Map()["X"] != 5 {
		t.Errorf("model = %v, want X=5", res.Model)
	}
	// Add X != 5: unsat.
	cs = append(cs, sym.Cmp(sym.OpNE, x(), sym.Int(5)))
	res = check(t, cs, map[string]Interval{"X": {0, 5}})
	if res.Sat {
		t.Error("all values excluded: must be unsat")
	}
}

func TestCheckBooleanInputs(t *testing.T) {
	b := sym.V("B")
	d := map[string]Interval{"B": BoolDomain, "X": {0, 10}}
	// B as bare constraint.
	res := check(t, []sym.Expr{b}, d)
	if !res.Sat || res.Model.Map()["B"] != 1 {
		t.Errorf("bare bool: model = %v, want B=1", res.Model)
	}
	// !B.
	res = check(t, []sym.Expr{&sym.Not{X: b}}, d) //diselint:ignore symcanon deliberate raw literal: exercises the non-interned structural-equality fallback
	if !res.Sat || res.Model.Map()["B"] != 0 {
		t.Errorf("negated bool: model = %v, want B=0", res.Model)
	}
	// B == true (comparison against a bool literal).
	res = check(t, []sym.Expr{&sym.Bin{Op: sym.OpEQ, L: b, R: sym.True}}, d) //diselint:ignore symcanon deliberate raw literal: exercises the non-interned structural-equality fallback
	if !res.Sat || res.Model.Map()["B"] != 1 {
		t.Errorf("B == true: model = %v, want B=1", res.Model)
	}
	// B && !B unsat.
	res = check(t, []sym.Expr{b, &sym.Not{X: b}}, d) //diselint:ignore symcanon deliberate raw literal: exercises the non-interned structural-equality fallback
	if res.Sat {
		t.Error("B && !B must be unsat")
	}
}

func TestCheckDisjunction(t *testing.T) {
	// (X == 3) || (X == 7), X != 3 → X = 7.
	or := sym.OrE(sym.Cmp(sym.OpEQ, x(), sym.Int(3)), sym.Cmp(sym.OpEQ, x(), sym.Int(7)))
	cs := []sym.Expr{or, sym.Cmp(sym.OpNE, x(), sym.Int(3))}
	res := check(t, cs, map[string]Interval{"X": {0, 100}})
	if !res.Sat || res.Model.Map()["X"] != 7 {
		t.Errorf("model = %v, want X=7", res.Model)
	}
	// (X < 0) || (X > 100) over [0,100] → unsat.
	or = sym.OrE(sym.Cmp(sym.OpLT, x(), sym.Zero), sym.Cmp(sym.OpGT, x(), sym.Int(100)))
	res = check(t, []sym.Expr{or}, map[string]Interval{"X": {0, 100}})
	if res.Sat {
		t.Error("out-of-domain disjunction must be unsat")
	}
}

func TestCheckNonlinear(t *testing.T) {
	// X * Y == 12 && X > Y over small domain → X=4, Y=3 or X=6, Y=2 or X=12, Y=1.
	cs := []sym.Expr{
		sym.Cmp(sym.OpEQ, sym.Mul(x(), y()), sym.Int(12)),
		sym.Cmp(sym.OpGT, x(), y()),
	}
	res := check(t, cs, dom(0, 20))
	if !res.Sat {
		t.Fatal("nonlinear system must be sat")
	}
	verifyModel(t, cs, res.Model)

	// X * X == 2 is unsat over integers.
	cs = []sym.Expr{sym.Cmp(sym.OpEQ, sym.Mul(x(), x()), sym.Int(2))}
	res = check(t, cs, map[string]Interval{"X": {0, 50}})
	if res.Sat {
		t.Errorf("X*X == 2 must be unsat, got %v", res.Model)
	}
}

func TestCheckDivisionModulo(t *testing.T) {
	// X / 3 == 4 → X in [12,14].
	div := &sym.Bin{Op: sym.OpDiv, L: x(), R: sym.Int(3)} //diselint:ignore symcanon deliberate raw literal: exercises the non-interned structural-equality fallback
	res := check(t, []sym.Expr{sym.Cmp(sym.OpEQ, div, sym.Int(4))}, map[string]Interval{"X": {0, 100}})
	if !res.Sat {
		t.Fatal("X/3 == 4 must be sat")
	}
	if v := res.Model.Map()["X"]; v < 12 || v > 14 {
		t.Errorf("X = %d, want in [12,14]", v)
	}
	// X % 2 == 1 && X % 3 == 0 → X ∈ {3, 9, 15, ...}.
	mod2 := &sym.Bin{Op: sym.OpMod, L: x(), R: sym.Int(2)} //diselint:ignore symcanon deliberate raw literal: exercises the non-interned structural-equality fallback
	mod3 := &sym.Bin{Op: sym.OpMod, L: x(), R: sym.Int(3)} //diselint:ignore symcanon deliberate raw literal: exercises the non-interned structural-equality fallback
	cs := []sym.Expr{
		sym.Cmp(sym.OpEQ, mod2, sym.One),
		sym.Cmp(sym.OpEQ, mod3, sym.Zero),
	}
	res = check(t, cs, map[string]Interval{"X": {0, 30}})
	if !res.Sat {
		t.Fatal("mod system must be sat")
	}
	verifyModel(t, cs, res.Model)
	// Division by zero in a constraint: unsat, not a crash.
	divZero := &sym.Bin{Op: sym.OpDiv, L: x(), R: sym.Zero} //diselint:ignore symcanon deliberate raw literal: exercises the non-interned structural-equality fallback
	res = check(t, []sym.Expr{sym.Cmp(sym.OpEQ, divZero, sym.Int(1))}, map[string]Interval{"X": {0, 3}})
	if res.Sat {
		t.Error("division by zero constraint must be unsat")
	}
}

func TestCheckSameFormContradictionIsFast(t *testing.T) {
	// X > Y together with X == Y is the bounds-propagation pathology: pure
	// bounds consistency walks the million-wide domain one unit per pass.
	// The same-form intersection must refute it during setup.
	cs := []sym.Expr{
		sym.Cmp(sym.OpGT, x(), y()),
		sym.Cmp(sym.OpEQ, x(), y()),
	}
	s := New(Options{})
	res := s.Check(cs, dom(0, 1_000_000))
	if res.Sat || res.Unknown {
		t.Fatalf("must be unsat, got sat=%v unknown=%v", res.Sat, res.Unknown)
	}
	st := s.Stats()
	if st.Propagations > 5 || st.SearchNodes > 0 {
		t.Errorf("contradiction not caught early: %+v", st)
	}
	// The complementary pair (negated first coefficient) as well.
	cs = []sym.Expr{
		sym.Cmp(sym.OpLT, sym.Sub(y(), x()), sym.Zero), // Y - X < 0  ≡  X > Y
		sym.Cmp(sym.OpEQ, sym.Sub(x(), y()), sym.Zero),
	}
	res = s.Check(cs, dom(0, 1_000_000))
	if res.Sat || res.Unknown {
		t.Fatal("sign-normalized forms must share a key")
	}
	// Same form with compatible ranges must stay satisfiable.
	cs = []sym.Expr{
		sym.Cmp(sym.OpGE, sym.Sub(x(), y()), sym.Int(2)),
		sym.Cmp(sym.OpLE, sym.Sub(x(), y()), sym.Int(5)),
	}
	res = s.Check(cs, dom(0, 1_000_000))
	if !res.Sat {
		t.Fatal("compatible ranges over one form must be sat")
	}
	verifyModel(t, cs, res.Model)
}

func TestCheckTightDomain(t *testing.T) {
	// Domain forcing: X in [5,5] with X == 5 sat, X == 6 unsat.
	d := map[string]Interval{"X": {5, 5}}
	if res := check(t, []sym.Expr{sym.Cmp(sym.OpEQ, x(), sym.Int(5))}, d); !res.Sat {
		t.Error("X==5 over [5,5] must be sat")
	}
	if res := check(t, []sym.Expr{sym.Cmp(sym.OpEQ, x(), sym.Int(6))}, d); res.Sat {
		t.Error("X==6 over [5,5] must be unsat")
	}
}

func TestCheckContradictoryConstants(t *testing.T) {
	res := check(t, []sym.Expr{sym.False}, nil)
	if res.Sat {
		t.Error("FALSE must be unsat")
	}
	res = check(t, []sym.Expr{sym.True}, nil)
	if !res.Sat {
		t.Error("TRUE must be sat")
	}
}

func TestCheckLargeDomainPropagation(t *testing.T) {
	// Propagation (not enumeration) must handle million-wide domains: the
	// search would never finish by brute force within the node budget.
	cs := []sym.Expr{
		sym.Cmp(sym.OpGE, x(), sym.Int(999_990)),
		sym.Cmp(sym.OpLE, x(), sym.Int(999_995)),
		sym.Cmp(sym.OpEQ, sym.Add(x(), y()), sym.Int(1_000_000)),
	}
	res := check(t, cs, map[string]Interval{"X": DefaultDomain, "Y": DefaultDomain})
	if !res.Sat {
		t.Fatal("must be sat")
	}
	verifyModel(t, cs, res.Model)
	s := New(Options{})
	r2 := s.Check(cs, map[string]Interval{"X": DefaultDomain, "Y": DefaultDomain})
	if s.Stats().SearchNodes > 1000 {
		t.Errorf("propagation too weak: %d search nodes", s.Stats().SearchNodes)
	}
	_ = r2
}

func TestNodeBudgetGivesUnknown(t *testing.T) {
	// A hard nonlinear equality over a wide box with a tiny budget.
	cs := []sym.Expr{
		sym.Cmp(sym.OpEQ, sym.Mul(x(), y()), sym.Int(999_983)), // prime
		sym.Cmp(sym.OpGT, x(), sym.One),
		sym.Cmp(sym.OpGT, y(), sym.One),
	}
	s := New(Options{NodeBudget: 10})
	res := s.Check(cs, dom(0, 1_000_000))
	if res.Sat {
		t.Fatalf("unexpected sat: %v", res.Model)
	}
	if !res.Unknown {
		t.Error("tiny budget should yield Unknown")
	}
}

// TestStatsCounting checks two verdicts and that the solver counted its
// propagation passes; the backends tally verdicts (constraint.Stats).
func TestStatsCounting(t *testing.T) {
	s := New(Options{})
	sat := s.Check([]sym.Expr{sym.Cmp(sym.OpGT, x(), sym.Int(5))}, map[string]Interval{"X": {0, 10}})
	unsat := s.Check([]sym.Expr{sym.Cmp(sym.OpGT, x(), sym.Int(50))}, map[string]Interval{"X": {0, 10}})
	if !sat.Sat || sat.Unknown || unsat.Sat || unsat.Unknown {
		t.Errorf("results = %+v, %+v; want one sat and one unsat", sat, unsat)
	}
	if st := s.Stats(); st.Propagations == 0 {
		t.Errorf("stats = %+v, want propagation passes counted", st)
	}
}

// --- randomized differential test vs brute force ----------------------------

// randCmp builds a random comparison over X, Y with small constants.
func randCmp(r *rand.Rand) sym.Expr {
	ops := []sym.Op{sym.OpEQ, sym.OpNE, sym.OpLT, sym.OpLE, sym.OpGT, sym.OpGE}
	op := ops[r.Intn(len(ops))]
	var lhs sym.Expr
	switch r.Intn(4) {
	case 0:
		lhs = x()
	case 1:
		lhs = y()
	case 2:
		lhs = sym.Add(x(), y())
	default:
		lhs = sym.Sub(sym.Mul(sym.Int(int64(r.Intn(3)+1)), x()), y())
	}
	return sym.Cmp(op, lhs, sym.Int(int64(r.Intn(21)-5)))
}

// TestPropertySolverMatchesBruteForce cross-checks the solver against
// exhaustive enumeration on a small box.
func TestPropertySolverMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const lo, hi = 0, 12
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(4) + 1
		cs := make([]sym.Expr, n)
		for i := range cs {
			cs[i] = randCmp(r)
		}
		// Brute force ground truth.
		want := false
	outer:
		for xv := int64(lo); xv <= hi; xv++ {
			for yv := int64(lo); yv <= hi; yv++ {
				env := NewModel(nil, map[string]int64{"X": xv, "Y": yv})
				all := true
				for _, c := range cs {
					v, err := sym.Eval(c, env)
					if err != nil || v == 0 {
						all = false
						break
					}
				}
				if all {
					want = true
					break outer
				}
			}
		}
		s := New(Options{})
		res := s.Check(cs, dom(lo, hi))
		if res.Unknown {
			t.Fatalf("trial %d: solver gave up on %s", trial, sym.Conjoin(cs))
		}
		if res.Sat != want {
			t.Fatalf("trial %d: Check(%s) = %v, brute force = %v", trial, sym.Conjoin(cs), res.Sat, want)
		}
		if res.Sat {
			verifyModel(t, cs, res.Model)
		}
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{2, 5}
	b := Interval{-3, 4}
	if got := addIv(a, b); got != (Interval{-1, 9}) {
		t.Errorf("add = %v", got)
	}
	if got := subIv(a, b); got != (Interval{-2, 8}) {
		t.Errorf("sub = %v", got)
	}
	if got := negIv(a); got != (Interval{-5, -2}) {
		t.Errorf("neg = %v", got)
	}
	if got := mulIv(a, b); got != (Interval{-15, 20}) {
		t.Errorf("mul = %v", got)
	}
	if got := a.Intersect(b); got != (Interval{2, 4}) {
		t.Errorf("intersect = %v", got)
	}
	if !(Interval{3, 2}).Empty() {
		t.Error("inverted interval must be empty")
	}
	if (Interval{1, 3}).Size() != 3 {
		t.Error("size wrong")
	}
}

// TestPropertyIntervalDivSound: divIv must contain all concrete quotients.
func TestPropertyIntervalDivSound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		a := Interval{int64(r.Intn(41) - 20), 0}
		a.Hi = a.Lo + int64(r.Intn(10))
		b := Interval{int64(r.Intn(21) - 10), 0}
		b.Hi = b.Lo + int64(r.Intn(6))
		iv := divIv(a, b)
		for av := a.Lo; av <= a.Hi; av++ {
			for bv := b.Lo; bv <= b.Hi; bv++ {
				if bv == 0 {
					continue
				}
				q := av / bv
				if !iv.Contains(q) {
					t.Fatalf("divIv(%v, %v) = %v misses %d/%d = %d", a, b, iv, av, bv, q)
				}
			}
		}
	}
}

// TestPropertyIntervalModSound: modIv must contain all concrete remainders.
func TestPropertyIntervalModSound(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		a := Interval{int64(r.Intn(41) - 20), 0}
		a.Hi = a.Lo + int64(r.Intn(10))
		b := Interval{int64(r.Intn(21) - 10), 0}
		b.Hi = b.Lo + int64(r.Intn(6))
		iv := modIv(a, b)
		for av := a.Lo; av <= a.Hi; av++ {
			for bv := b.Lo; bv <= b.Hi; bv++ {
				if bv == 0 {
					continue
				}
				m := av % bv
				if !iv.Contains(m) {
					t.Fatalf("modIv(%v, %v) = %v misses %d%%%d = %d", a, b, iv, av, bv, m)
				}
			}
		}
	}
}

func TestFloorCeilDiv(t *testing.T) {
	tests := []struct {
		a, b, floor, ceil int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{7, -2, -4, -3},
		{-7, -2, 3, 4},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{0, 5, 0, 0},
	}
	for _, tt := range tests {
		if got := floorDiv(tt.a, tt.b); got != tt.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.floor)
		}
		if got := ceilDiv(tt.a, tt.b); got != tt.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.ceil)
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if satMul(satBound, 2) != satBound {
		t.Error("satMul must clamp at +satBound")
	}
	if satMul(-satBound, 2) != -satBound {
		t.Error("satMul must clamp at -satBound")
	}
	if satMul(satBound, -2) != -satBound {
		t.Error("satMul sign handling")
	}
	if satAdd(satBound, satBound) != satBound {
		t.Error("satAdd must clamp")
	}
	if satMul(0, satBound) != 0 {
		t.Error("satMul zero")
	}
}

// TestTightenTemplateReuse exercises the per-constraint problem skeleton
// cache behind Tighten: the same constraint propagated against different
// boxes must tighten each box independently and correctly, with the cached
// skeleton (second call onward) giving the same answers as the first.
func TestTightenTemplateReuse(t *testing.T) {
	s := NewIndexed(Options{}, map[string]Interval{"X": {0, 100}})
	c := sym.Cmp(sym.OpLT, x(), sym.Int(10)) // X < 10
	boxes := []Interval{
		{0, 100},
		{0, 5},
		{50, 100},
		{0, 100}, // repeat of the first: must reproduce it exactly
	}
	wantHi := []int64{9, 5, 0, 9} // tightened X.Hi; third is a conflict
	wantOK := []bool{true, true, false, true}
	for i, d := range boxes {
		parent := &Box{iv: []Interval{d}}
		box, residual, ok := s.Tighten(parent, []sym.Expr{c})
		if ok != wantOK[i] {
			t.Fatalf("call %d: ok = %v, want %v", i, ok, wantOK[i])
		}
		if !ok {
			continue
		}
		if got := box.iv[0]; got.Hi != wantHi[i] || got.Lo != d.Lo {
			t.Fatalf("call %d: X = %+v, want Hi %d", i, got, wantHi[i])
		}
		// A box that already entails X < 10 comes back as the parent itself.
		if shared := box == parent; shared != (d.Hi < 10) {
			t.Fatalf("call %d: parent shared = %v, want %v", i, shared, d.Hi < 10)
		}
		// X < 10 is entailed by every box the propagation produces here, so
		// nothing is residual.
		if len(residual) != 0 {
			t.Fatalf("call %d: residual = %v, want none", i, residual)
		}
	}
	// The skeleton is cached per expression pointer (hash-consed, so the
	// rebuilt constraint is the same pointer and the same template).
	if len(s.propTpl) != 1 {
		t.Fatalf("template cache holds %d entries, want 1", len(s.propTpl))
	}
	if _, ok := s.propTpl[sym.Cmp(sym.OpLT, sym.V("X"), sym.Int(10))]; !ok {
		t.Fatalf("rebuilt constraint missed the template cache")
	}
}

// TestTightenTrivialCases pins the degenerate paths: no constraints,
// trivially-true constraints, and a same-form contradiction refuted during
// template construction without any propagation.
func TestTightenTrivialCases(t *testing.T) {
	s := NewIndexed(Options{}, dom(0, 10))
	base := s.Base()
	if box, residual, ok := s.Tighten(base, nil); !ok || box != base || residual != nil {
		t.Fatalf("empty constraint list: got (%v, %v, %v)", box, residual, ok)
	}
	if box, _, ok := s.Tighten(base, []sym.Expr{sym.True}); !ok || box != base {
		t.Fatalf("trivially-true constraint must propagate ok and share the box")
	}
	// X - Y == 0 together with X - Y >= 1 in one conjunction: the same-form
	// intersection inside the template refutes it outright.
	contradiction := sym.AndE(
		sym.Cmp(sym.OpEQ, sym.Sub(x(), y()), sym.Zero),
		sym.Cmp(sym.OpGE, sym.Sub(x(), y()), sym.One),
	)
	if _, _, ok := s.Tighten(s.Base(), []sym.Expr{contradiction}); ok {
		t.Fatalf("same-form contradiction not refuted")
	}
}
