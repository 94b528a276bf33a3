package sym

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSmartConstructorFolding(t *testing.T) {
	x := V("X")
	tests := []struct {
		got  Expr
		want string
	}{
		{Add(Int(2), Int(3)), "5"},
		{Add(x, Zero), "X"},
		{Add(Zero, x), "X"},
		{Sub(x, Zero), "X"},
		{Sub(x, x), "0"},
		{Sub(Int(7), Int(3)), "4"},
		{Mul(Int(3), Int(4)), "12"},
		{Mul(x, Zero), "0"},
		{Mul(One, x), "X"},
		{Mul(x, One), "X"},
		{Div(Int(7), Int(2)), "3"},
		{Div(x, One), "X"},
		{Div(Int(1), Int(4)), "0"}, // the paper's AltPress = 1/4 under int semantics
		{Mod(Int(7), Int(3)), "1"},
		{Mod(x, One), "0"},
		{NegE(Int(5)), "-5"},
		{NegE(NegE(x)), "X"},
		{Add(Add(x, Int(1)), Int(1)), "X + 2"},
		{Sub(Add(x, Int(5)), Int(2)), "X + 3"},
		{Add(Sub(x, Int(5)), Int(2)), "X - 3"},
	}
	for _, tt := range tests {
		if got := tt.got.String(); got != tt.want {
			t.Errorf("got %q, want %q", got, tt.want)
		}
	}
}

func TestCmpFolding(t *testing.T) {
	x := V("X")
	tests := []struct {
		got  Expr
		want string
	}{
		{Cmp(OpLT, Int(1), Int(2)), "TRUE"},
		{Cmp(OpGE, Int(1), Int(2)), "FALSE"},
		{Cmp(OpEQ, x, x), "TRUE"},
		{Cmp(OpNE, x, x), "FALSE"},
		{Cmp(OpLE, x, x), "TRUE"},
		{Cmp(OpLT, x, x), "FALSE"},
		{Cmp(OpEQ, True, False), "FALSE"},
		{Cmp(OpNE, True, False), "TRUE"},
		{Cmp(OpGT, x, Int(0)), "X > 0"},
	}
	for _, tt := range tests {
		if got := tt.got.String(); got != tt.want {
			t.Errorf("got %q, want %q", got, tt.want)
		}
	}
}

func TestBooleanSimplification(t *testing.T) {
	p := Cmp(OpGT, V("X"), Zero)
	tests := []struct {
		got  Expr
		want string
	}{
		{AndE(True, p), "X > 0"},
		{AndE(p, True), "X > 0"},
		{AndE(False, p), "FALSE"},
		{OrE(True, p), "TRUE"},
		{OrE(p, False), "X > 0"},
		{NotE(True), "FALSE"},
		{NotE(NotE(p)), "X > 0"},
		{NotE(p), "X <= 0"},
		{NotE(Cmp(OpEQ, V("X"), One)), "X != 1"},
		{NotE(AndE(p, Cmp(OpEQ, V("Y"), Zero))), "(X <= 0) || (Y != 0)"},
		{NotE(OrE(p, Cmp(OpEQ, V("Y"), Zero))), "(X <= 0) && (Y != 0)"},
	}
	for _, tt := range tests {
		if got := tt.got.String(); got != tt.want {
			t.Errorf("got %q, want %q", got, tt.want)
		}
	}
}

func TestNegateAndSwap(t *testing.T) {
	pairs := map[Op]Op{
		OpEQ: OpNE, OpNE: OpEQ, OpLT: OpGE, OpLE: OpGT, OpGT: OpLE, OpGE: OpLT,
	}
	for op, want := range pairs {
		if got := op.Negate(); got != want {
			t.Errorf("%v.Negate() = %v, want %v", op, got, want)
		}
		if got := op.Negate().Negate(); got != op {
			t.Errorf("double negation of %v = %v", op, got)
		}
	}
	swaps := map[Op]Op{OpLT: OpGT, OpLE: OpGE, OpGT: OpLT, OpGE: OpLE, OpEQ: OpEQ, OpNE: OpNE}
	for op, want := range swaps {
		if got := op.Swap(); got != want {
			t.Errorf("%v.Swap() = %v, want %v", op, got, want)
		}
	}
}

func TestEqualStructural(t *testing.T) {
	a := Add(V("X"), Int(2))
	b := Add(V("X"), Int(2))
	c := Add(V("Y"), Int(2))
	if !Equal(a, b) {
		t.Error("identical expressions must be Equal")
	}
	if Equal(a, c) {
		t.Error("different variables must not be Equal")
	}
	if Equal(a, Int(2)) {
		t.Error("different shapes must not be Equal")
	}
	if !Equal(NotE(V("B")), NotE(V("B"))) {
		t.Error("Not nodes must compare structurally")
	}
}

func TestVarsCollection(t *testing.T) {
	e := AndE(Cmp(OpGT, Add(V("X"), V("Y")), Zero), Cmp(OpEQ, V("A"), V("X")))
	got := Vars(e)
	want := []string{"A", "X", "Y"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Vars[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestConjoin(t *testing.T) {
	if Conjoin(nil) != "true" {
		t.Errorf("empty conjunction = %q, want true", Conjoin(nil))
	}
	cs := []Expr{Cmp(OpGT, V("X"), Zero), Cmp(OpEQ, V("Y"), One)}
	if got := Conjoin(cs); got != "X > 0 && Y == 1" {
		t.Errorf("Conjoin = %q", got)
	}
}

func TestLinearOf(t *testing.T) {
	x, y := V("X"), V("Y")
	tests := []struct {
		e    Expr
		want string
		ok   bool
	}{
		{Int(5), "5", true},
		{x, "1*X", true},
		{Add(x, y), "1*X + 1*Y", true},
		{Sub(x, y), "1*X + -1*Y", true},
		{Add(Add(x, x), Int(3)), "2*X + 3", true},
		{Mul(Int(3), x), "3*X", true},
		{Mul(x, Int(3)), "3*X", true},
		{Sub(Mul(Int(2), x), Mul(Int(2), x)), "0", true},
		{Mul(x, y), "", false},
		{&Bin{Op: OpDiv, L: x, R: Int(2)}, "", false},
		{&Bin{Op: OpMod, L: x, R: Int(2)}, "", false},
		{NegE(Add(x, Int(1))), "-1*X + -1", true},
	}
	for _, tt := range tests {
		lin, ok := LinearOf(tt.e)
		if ok != tt.ok {
			t.Errorf("LinearOf(%s) ok = %v, want %v", tt.e, ok, tt.ok)
			continue
		}
		if ok && lin.String() != tt.want {
			t.Errorf("LinearOf(%s) = %q, want %q", tt.e, lin.String(), tt.want)
		}
	}
}

// TestEvalConcrete also pins booleans as 0/1: constants, negation and the
// connectives yield exactly 0 or 1, and any non-zero operand is true.
func TestEvalConcrete(t *testing.T) {
	env := Values{"X": 3, "Y": -2, "B": 1, "P": 5, "Q": -3, "Z": 0}
	tests := []struct {
		e    Expr
		want int64
	}{
		{Add(V("X"), V("Y")), 1},
		{Mul(V("X"), V("Y")), -6},
		{Sub(V("X"), V("Y")), 5},
		{&Bin{Op: OpDiv, L: Int(7), R: V("X")}, 2},
		{&Bin{Op: OpMod, L: Int(7), R: V("X")}, 1},
		{Cmp(OpGT, V("X"), V("Y")), 1},
		{Cmp(OpEQ, V("X"), Int(3)), 1},
		{AndE(V("B"), Cmp(OpLT, V("Y"), Zero)), 1},
		{OrE(NotE(V("B")), False), 0},
		{NegE(V("X")), -3},
		{True, 1},
		{False, 0},
		{&Not{X: V("P")}, 0},
		{&Not{X: V("Z")}, 1},
		{&Bin{Op: OpAnd, L: V("P"), R: V("Q")}, 1},
		{&Bin{Op: OpAnd, L: V("P"), R: V("Z")}, 0},
		{&Bin{Op: OpOr, L: V("Z"), R: V("Q")}, 1},
		{&Bin{Op: OpOr, L: V("Z"), R: V("Z")}, 0},
		{&Ite{Cond: V("Q"), Then: Int(7), Else: Int(9)}, 7},
		{&Ite{Cond: V("Z"), Then: Int(7), Else: Int(9)}, 9},
	}
	for _, tt := range tests {
		v, err := Eval(tt.e, env)
		if err != nil {
			t.Errorf("Eval(%s): %v", tt.e, err)
			continue
		}
		if v != tt.want {
			t.Errorf("Eval(%s) = %d, want %d", tt.e, v, tt.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	env := Values{"X": 1}
	bad := []Expr{
		V("missing"),
		&Bin{Op: OpDiv, L: V("X"), R: Zero},
		&Bin{Op: OpMod, L: V("X"), R: Zero},
	}
	for _, e := range bad {
		if _, err := Eval(e, env); err == nil {
			t.Errorf("Eval(%s): expected error", e)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// The right operand divides by zero, but short-circuiting skips it.
	env := Values{"X": 0}
	e := OrE(Cmp(OpEQ, V("X"), Zero), Cmp(OpEQ, &Bin{Op: OpDiv, L: One, R: V("X")}, Zero))
	// OrE doesn't fold (left is symbolic pre-eval); evaluate directly.
	v, err := Eval(e, env)
	if err != nil {
		t.Fatalf("short-circuit Or evaluated rhs: %v", err)
	}
	if v != 1 {
		t.Errorf("got %d, want 1", v)
	}
}

// --- property-based tests ---------------------------------------------------

// randExpr builds a random integer expression over vars X, Y with depth d.
func randExpr(r *rand.Rand, d int) Expr {
	if d == 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return Int(int64(r.Intn(21) - 10))
		case 1:
			return V("X")
		default:
			return V("Y")
		}
	}
	l, rr := randExpr(r, d-1), randExpr(r, d-1)
	switch r.Intn(4) {
	case 0:
		return Add(l, rr)
	case 1:
		return Sub(l, rr)
	case 2:
		return Mul(l, rr)
	default:
		return NegE(l)
	}
}

// TestPropertyLinearOfAgreesWithEval: when LinearOf succeeds, evaluating the
// linear form must equal evaluating the original expression.
func TestPropertyLinearOfAgreesWithEval(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	checked := 0
	for i := 0; i < 1000; i++ {
		e := randExpr(r, 4)
		lin, ok := LinearOf(e)
		if !ok {
			continue
		}
		checked++
		x := int64(r.Intn(21) - 10)
		y := int64(r.Intn(21) - 10)
		v, err := Eval(e, Values{"X": x, "Y": y})
		if err != nil {
			t.Fatalf("Eval: %v", err)
		}
		got := lin.Const + lin.Coeffs["X"]*x + lin.Coeffs["Y"]*y
		if got != v {
			t.Fatalf("linear form %s = %d but Eval(%s) = %d", lin, got, e, v)
		}
	}
	if checked < 100 {
		t.Fatalf("too few linearizable samples: %d", checked)
	}
}

// TestPropertyNotEIsComplement uses testing/quick to confirm NotE computes
// the logical complement for comparisons over random operands.
func TestPropertyNotEIsComplement(t *testing.T) {
	f := func(a, b int16, opIdx uint8) bool {
		ops := []Op{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
		op := ops[int(opIdx)%len(ops)]
		e := &Bin{Op: op, L: V("A"), R: V("B")}
		env := Values{"A": int64(a), "B": int64(b)}
		v1, err1 := Eval(e, env)
		v2, err2 := Eval(NotE(e), env)
		return err1 == nil && err2 == nil && v1+v2 == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeMorgan checks NotE over conjunctions/disjunctions.
func TestPropertyDeMorgan(t *testing.T) {
	f := func(a, b int16, c, d int16) bool {
		p := &Bin{Op: OpLT, L: V("A"), R: V("B")}
		q := &Bin{Op: OpGE, L: V("C"), R: V("D")}
		env := Values{"A": int64(a), "B": int64(b), "C": int64(c), "D": int64(d)}
		v1, err1 := Eval(NotE(AndE(p, q)), env)
		pv, _ := Eval(p, env)
		qv, _ := Eval(q, env)
		return err1 == nil && v1 == 1-pv*qv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSubstReplacesVariables(t *testing.T) {
	e := Add(V("X"), Mul(V("Y"), Int(2)))
	got := Subst(e, map[string]Expr{"X": Int(1), "Y": Int(3)})
	if c, ok := got.(*IntConst); !ok || c.V != 7 {
		t.Errorf("Subst full = %s, want 7", got)
	}
	partial := Subst(e, map[string]Expr{"Y": Int(0)})
	if partial.String() != "X" {
		t.Errorf("Subst partial = %s, want X", partial)
	}
}

func TestSharedConstants(t *testing.T) {
	if Int(0) != Zero || Int(1) != One {
		t.Error("Int must return shared constants for 0 and 1")
	}
	if Bool(true) != True || Bool(false) != False {
		t.Error("Bool must return shared constants")
	}
}

func TestLinearCloneIndependence(t *testing.T) {
	a := NewLinear()
	a.Coeffs["X"] = 2
	a.Const = 5
	b := a.Clone()
	b.Coeffs["X"] = 9
	b.Const = 1
	if a.Coeffs["X"] != 2 || a.Const != 5 {
		t.Error("Clone is not independent")
	}
}
