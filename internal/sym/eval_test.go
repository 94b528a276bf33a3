package sym

import (
	"math"
	"math/rand"
	"testing"
)

// TestInt64Edges pins the one concrete meaning where int64 shows: overflow
// wraps, / and % truncate toward zero and trap by zero, and comparisons
// hold at the extremes and evaluate to 0/1. Op.Arith or Op.Holds, and Eval,
// must agree with every row.
func TestInt64Edges(t *testing.T) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	tests := []struct {
		op   Op
		a, b int64
		want int64 // a comparison's is 0/1
		ok   bool  // false: by zero
	}{
		{OpAdd, hi, 1, lo, true},
		{OpSub, lo, 1, hi, true},
		{OpMul, lo, -1, lo, true},
		{OpMul, hi, 2, -2, true},
		{OpDiv, lo, -1, lo, true},
		{OpMod, lo, -1, 0, true},
		{OpDiv, -7, 2, -3, true},
		{OpMod, -7, 2, -1, true},
		{OpDiv, 7, -2, -3, true},
		{OpMod, 7, -2, 1, true},
		{OpDiv, lo, 0, 0, false},
		{OpMod, 7, 0, 0, false},
		{OpLT, lo, hi, 1, true},
		{OpLE, hi, hi, 1, true},
		{OpGT, lo, hi, 0, true},
		{OpGE, lo, lo, 1, true},
		{OpEQ, lo, hi, 0, true},
		{OpNE, lo, hi, 1, true},
		{OpGT, -1, lo, 1, true},
	}
	for _, tt := range tests {
		if tt.op.IsArith() {
			if v, ok := tt.op.Arith(tt.a, tt.b); ok != tt.ok || v != tt.want {
				t.Errorf("%v.Arith(%d, %d) = %d, %v; want %d, %v", tt.op, tt.a, tt.b, v, ok, tt.want, tt.ok)
			}
		} else if got := tt.op.Holds(tt.a, tt.b); got != (tt.want == 1) {
			t.Errorf("%v.Holds(%d, %d) = %v, want %v", tt.op, tt.a, tt.b, got, !got)
		}
		e := &Bin{Op: tt.op, L: V("A"), R: V("B")}
		v, err := Eval(e, Values{"A": tt.a, "B": tt.b})
		switch {
		case !tt.ok && err == nil:
			t.Errorf("Eval(%s) at A=%d B=%d = %d, want a by-zero error", e, tt.a, tt.b, v)
		case tt.ok && (err != nil || v != tt.want):
			t.Errorf("Eval(%s) at A=%d B=%d = %d, %v; want %d", e, tt.a, tt.b, v, err, tt.want)
		}
	}
}

// shapes supplies the choices the folding checks' tree generator makes: a
// seeded rand.Rand's draws, or a fuzz input's bytes.
type shapes interface {
	intn(n int) int
	int64() int64
}

type randShapes struct{ r *rand.Rand }

func (s randShapes) intn(n int) int { return s.r.Intn(n) }
func (s randShapes) int64() int64   { return int64(s.r.Uint64()) }

// byteShapes reads choices off a fuzz input; an exhausted input reads 0.
type byteShapes struct{ data []byte }

func (s *byteShapes) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *byteShapes) intn(n int) int { return int(s.next()) % n }

func (s *byteShapes) int64() int64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(s.next())
	}
	return int64(v)
}

// edgeInts are the int64 values around which wrapping, truncation and the
// sign of a remainder show.
var edgeInts = []int64{math.MinInt64, math.MinInt64 + 1, -7, -2, -1, 0, 1, 2, 7, math.MaxInt64 - 1, math.MaxInt64}

// operand draws a full-range int64, an edge value half of the time.
func operand(s shapes) int64 {
	if s.intn(2) == 0 {
		return edgeInts[s.intn(len(edgeInts))]
	}
	return s.int64()
}

// unfoldedTree builds an integer tree of depth at most d over X, Y and
// full-range constants: + - * and unary minus, and / and % by non-zero
// constants, so evaluating it never traps. Its inner nodes are raw
// literals: no smart constructor has folded what was drawn.
func unfoldedTree(s shapes, d int) Expr {
	if d == 0 || s.intn(3) == 0 {
		switch s.intn(3) {
		case 0:
			return Int(operand(s))
		case 1:
			return V("X")
		default:
			return V("Y")
		}
	}
	l := unfoldedTree(s, d-1)
	switch k := s.intn(6); k {
	case 0, 1, 2:
		return &Bin{Op: []Op{OpAdd, OpSub, OpMul}[k], L: l, R: unfoldedTree(s, d-1)}
	case 3, 4:
		c := operand(s)
		if c == 0 {
			c = -1
		}
		return &Bin{Op: []Op{OpDiv, OpMod}[k-3], L: l, R: Int(c)}
	default:
		return &Neg{X: l}
	}
}

// checkFolding rebuilds e through the smart constructors (Subst with no
// replacements) and requires the folded tree to evaluate to e's value.
func checkFolding(t *testing.T, e Expr, x, y int64) {
	t.Helper()
	env := Values{"X": x, "Y": y}
	want, err := Eval(e, env)
	if err != nil {
		t.Fatalf("Eval(%s) under %v: %v", e, env, err)
	}
	folded := Subst(e, nil)
	if got, err := Eval(folded, env); err != nil || got != want {
		t.Fatalf("folding changed the value under %v: %s = %d, but %s = %d (err %v)", env, e, want, folded, got, err)
	}
}

// TestPropertySimplifyPreservesSemantics checks that the smart constructors
// agree with unfolded evaluation on random trees over full-range operands.
func TestPropertySimplifyPreservesSemantics(t *testing.T) {
	s := randShapes{rand.New(rand.NewSource(1))}
	for range 50000 {
		e := unfoldedTree(s, 5)
		checkFolding(t, e, operand(s), operand(s))
	}
}

// FuzzFoldingMatchesEval builds the property test's trees from fuzz input.
func FuzzFoldingMatchesEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 0, 1, 2})
	f.Add([]byte{2, 0, 2, 3, 2, 1, 0, 0, 0, 1, 0, 0, 0, 10})
	f.Add([]byte{1, 5, 1, 4, 1, 2, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteShapes{data: data}
		e := unfoldedTree(s, 5)
		checkFolding(t, e, operand(s), operand(s))
	})
}
