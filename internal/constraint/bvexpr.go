package constraint

import (
	"fmt"
	"strings"
)

// This file implements the expression layer of the bitvector backend: a
// hash-consing builder over fixed-width bitvector terms, in the style of
// gosmt's ExprBuilder. All terms built by one Builder share one width W;
// values are uint64s masked to W bits, arithmetic wraps modulo 2^W, and
// comparisons are signed (two's complement). The builder constant-folds
// eagerly and interns structurally equal nodes, so pointer equality is
// structural equality — sharing that matters when the execution engine
// asserts thousands of closely related constraints.

// BVOp enumerates bitvector node kinds.
type BVOp int

// Node kinds. Ops through BVIte are W-bit valued; the rest are boolean
// valued (encoded 0/1 when a concrete value is needed).
const (
	BVConst BVOp = iota
	BVVar
	BVAdd
	BVSub
	BVMul
	BVSDiv // signed division, truncated (Go/Java semantics); x/0 is a run-time error
	BVSRem // signed remainder, sign follows the dividend
	BVNeg
	BVIte // ite(C, L, R): W-bit conditional on a boolean guard

	BVBoolConst
	BVEq
	BVNe
	BVSlt
	BVSle
	BVSgt
	BVSge
	BVBoolAnd
	BVBoolOr
	BVBoolNot
)

var bvOpNames = map[BVOp]string{
	BVAdd: "+", BVSub: "-", BVMul: "*", BVSDiv: "/s", BVSRem: "%s", BVNeg: "-",
	BVEq: "==", BVNe: "!=", BVSlt: "<s", BVSle: "<=s", BVSgt: ">s", BVSge: ">=s",
	BVBoolAnd: "&&", BVBoolOr: "||", BVBoolNot: "!",
}

// IsBool reports whether the op yields a boolean.
func (o BVOp) IsBool() bool { return o >= BVBoolConst }

// BVExpr is one interned bitvector term. Instances are immutable and unique
// per Builder: two structurally equal terms are the same pointer.
type BVExpr struct {
	Op   BVOp
	L, R *BVExpr // R nil for unary ops; both nil for leaves
	C    *BVExpr // BVIte only: the boolean guard (L = then, R = else)
	Val  uint64  // BVConst (masked to width) and BVBoolConst (0/1)
	Name string  // BVVar
	id   int
}

// String renders the term with explicit signedness markers.
func (e *BVExpr) String() string {
	switch e.Op {
	case BVConst:
		return fmt.Sprintf("0x%x", e.Val)
	case BVBoolConst:
		if e.Val != 0 {
			return "true"
		}
		return "false"
	case BVVar:
		return e.Name
	case BVNeg, BVBoolNot:
		return bvOpNames[e.Op] + "(" + e.L.String() + ")"
	case BVIte:
		return "ite(" + e.C.String() + ", " + e.L.String() + ", " + e.R.String() + ")"
	default:
		return "(" + e.L.String() + " " + bvOpNames[e.Op] + " " + e.R.String() + ")"
	}
}

// Builder interns fixed-width bitvector terms. Not safe for concurrent use;
// each backend instance owns one.
type Builder struct {
	mask   uint64
	signBt uint64 // the sign bit of the width
	nodes  map[string]*BVExpr
	nextID int
}

// NewBuilder returns a builder for width-bit terms (8 ≤ width ≤ 64).
func NewBuilder(width int) (*Builder, error) {
	if width < 8 || width > 64 {
		return nil, fmt.Errorf("constraint: bitvector width %d out of range [8, 64]", width)
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = (uint64(1) << width) - 1
	}
	return &Builder{
		mask:   mask,
		signBt: uint64(1) << (width - 1),
		nodes:  map[string]*BVExpr{},
	}, nil
}

// MaxS and MinS are the largest and smallest signed values of the width.
func (b *Builder) MaxS() int64 { return int64(b.signBt - 1) }
func (b *Builder) MinS() int64 { return -int64(b.signBt) }

// Mask truncates v to the width.
func (b *Builder) Mask(v uint64) uint64 { return v & b.mask }

// ToSigned sign-extends a masked value to int64.
func (b *Builder) ToSigned(v uint64) int64 {
	v &= b.mask
	if v&b.signBt != 0 {
		return int64(v | ^b.mask)
	}
	return int64(v)
}

// FromSigned truncates a signed value into the width (wrapping).
func (b *Builder) FromSigned(v int64) uint64 { return uint64(v) & b.mask }

func (b *Builder) intern(key string, mk func() *BVExpr) *BVExpr {
	if e, ok := b.nodes[key]; ok {
		return e
	}
	e := mk()
	e.id = b.nextID
	b.nextID++
	b.nodes[key] = e
	return e
}

// Const builds a W-bit constant from a signed value (wrapping).
func (b *Builder) Const(v int64) *BVExpr {
	u := b.FromSigned(v)
	return b.intern(fmt.Sprintf("c%x", u), func() *BVExpr { return &BVExpr{Op: BVConst, Val: u} })
}

// Bool builds a boolean constant.
func (b *Builder) Bool(v bool) *BVExpr {
	u := uint64(0)
	if v {
		u = 1
	}
	return b.intern(fmt.Sprintf("b%d", u), func() *BVExpr { return &BVExpr{Op: BVBoolConst, Val: u} })
}

// Var builds (or returns) the named W-bit variable.
func (b *Builder) Var(name string) *BVExpr {
	return b.intern("v"+name, func() *BVExpr { return &BVExpr{Op: BVVar, Name: name} })
}

// node interns an operator application, constant-folding when every operand
// is constant and folding is total (division by zero is left symbolic so it
// can surface as a run-time error during evaluation).
func (b *Builder) node(op BVOp, l, r *BVExpr) *BVExpr {
	if b.foldable(op, l, r) {
		if v, err := b.evalNode(op, l.Val, constVal(r)); err == nil {
			if op.IsBool() {
				return b.Bool(v != 0)
			}
			return b.intern(fmt.Sprintf("c%x", v), func() *BVExpr { return &BVExpr{Op: BVConst, Val: v} })
		}
	}
	var key strings.Builder
	fmt.Fprintf(&key, "n%d:%d", op, l.id)
	if r != nil {
		fmt.Fprintf(&key, ":%d", r.id)
	}
	return b.intern(key.String(), func() *BVExpr { return &BVExpr{Op: op, L: l, R: r} })
}

func (b *Builder) foldable(op BVOp, l, r *BVExpr) bool {
	isConst := func(e *BVExpr) bool { return e.Op == BVConst || e.Op == BVBoolConst }
	return isConst(l) && (r == nil || isConst(r))
}

func constVal(e *BVExpr) uint64 {
	if e == nil {
		return 0
	}
	return e.Val
}

// Arithmetic (wrapping modulo 2^W).
func (b *Builder) Add(l, r *BVExpr) *BVExpr  { return b.node(BVAdd, l, r) }
func (b *Builder) Sub(l, r *BVExpr) *BVExpr  { return b.node(BVSub, l, r) }
func (b *Builder) Mul(l, r *BVExpr) *BVExpr  { return b.node(BVMul, l, r) }
func (b *Builder) SDiv(l, r *BVExpr) *BVExpr { return b.node(BVSDiv, l, r) }
func (b *Builder) SRem(l, r *BVExpr) *BVExpr { return b.node(BVSRem, l, r) }
func (b *Builder) Neg(x *BVExpr) *BVExpr     { return b.node(BVNeg, x, nil) }

// Comparisons.
func (b *Builder) Eq(l, r *BVExpr) *BVExpr  { return b.node(BVEq, l, r) }
func (b *Builder) Ne(l, r *BVExpr) *BVExpr  { return b.node(BVNe, l, r) }
func (b *Builder) Slt(l, r *BVExpr) *BVExpr { return b.node(BVSlt, l, r) }
func (b *Builder) Sle(l, r *BVExpr) *BVExpr { return b.node(BVSle, l, r) }
func (b *Builder) Sgt(l, r *BVExpr) *BVExpr { return b.node(BVSgt, l, r) }
func (b *Builder) Sge(l, r *BVExpr) *BVExpr { return b.node(BVSge, l, r) }

// Boolean connectives.
func (b *Builder) BoolAnd(l, r *BVExpr) *BVExpr { return b.node(BVBoolAnd, l, r) }
func (b *Builder) BoolOr(l, r *BVExpr) *BVExpr  { return b.node(BVBoolOr, l, r) }
func (b *Builder) BoolNot(x *BVExpr) *BVExpr    { return b.node(BVBoolNot, x, nil) }

// Ite builds the W-bit conditional ite(c, t, e): t when the boolean term c
// is true, e otherwise. A constant guard folds to the selected arm; equal
// arms collapse. It does not go through node() — the ternary shape needs its
// own intern key and never constant-folds via evalNode.
func (b *Builder) Ite(c, t, e *BVExpr) *BVExpr {
	if c.Op == BVBoolConst {
		if c.Val != 0 {
			return t
		}
		return e
	}
	if t == e {
		return t
	}
	return b.intern(fmt.Sprintf("i%d:%d:%d", c.id, t.id, e.id), func() *BVExpr {
		return &BVExpr{Op: BVIte, C: c, L: t, R: e}
	})
}

// Eval evaluates the term concretely under env (masked W-bit values per
// variable). Boolean terms evaluate to 0/1. Division or remainder by zero
// returns an error — the corresponding concrete execution would trap, so
// solvers treat such assignments as falsifying.
func (b *Builder) Eval(e *BVExpr, env map[string]uint64) (uint64, error) {
	switch e.Op {
	case BVConst, BVBoolConst:
		return e.Val, nil
	case BVVar:
		v, ok := env[e.Name]
		if !ok {
			return 0, fmt.Errorf("constraint: unbound bitvector variable %q", e.Name)
		}
		return v & b.mask, nil
	case BVBoolAnd: // short-circuit like the source language
		l, err := b.Eval(e.L, env)
		if err != nil {
			return 0, err
		}
		if l == 0 {
			return 0, nil
		}
		return b.Eval(e.R, env)
	case BVBoolOr:
		l, err := b.Eval(e.L, env)
		if err != nil {
			return 0, err
		}
		if l != 0 {
			return 1, nil
		}
		return b.Eval(e.R, env)
	case BVIte:
		c, err := b.Eval(e.C, env)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return b.Eval(e.L, env)
		}
		return b.Eval(e.R, env)
	}
	l, err := b.Eval(e.L, env)
	if err != nil {
		return 0, err
	}
	var r uint64
	if e.R != nil {
		if r, err = b.Eval(e.R, env); err != nil {
			return 0, err
		}
	}
	return b.evalNode(e.Op, l, r)
}

// evalNode applies one operator to masked operand values.
func (b *Builder) evalNode(op BVOp, l, r uint64) (uint64, error) {
	switch op {
	case BVAdd:
		return (l + r) & b.mask, nil
	case BVSub:
		return (l - r) & b.mask, nil
	case BVMul:
		return (l * r) & b.mask, nil
	case BVSDiv:
		if r == 0 {
			return 0, fmt.Errorf("constraint: bitvector division by zero")
		}
		ls, rs := b.ToSigned(l), b.ToSigned(r)
		if ls == b.MinS() && rs == -1 {
			return l, nil // MinS / -1 wraps to MinS (two's-complement overflow)
		}
		return b.FromSigned(ls / rs), nil
	case BVSRem:
		if r == 0 {
			return 0, fmt.Errorf("constraint: bitvector remainder by zero")
		}
		ls, rs := b.ToSigned(l), b.ToSigned(r)
		if ls == b.MinS() && rs == -1 {
			return 0, nil
		}
		return b.FromSigned(ls % rs), nil
	case BVNeg:
		return (-l) & b.mask, nil
	case BVEq:
		return b01(l == r), nil
	case BVNe:
		return b01(l != r), nil
	case BVSlt:
		return b01(b.ToSigned(l) < b.ToSigned(r)), nil
	case BVSle:
		return b01(b.ToSigned(l) <= b.ToSigned(r)), nil
	case BVSgt:
		return b01(b.ToSigned(l) > b.ToSigned(r)), nil
	case BVSge:
		return b01(b.ToSigned(l) >= b.ToSigned(r)), nil
	case BVBoolNot:
		return b01(l == 0), nil
	case BVBoolAnd:
		return b01(l != 0 && r != 0), nil
	case BVBoolOr:
		return b01(l != 0 || r != 0), nil
	}
	return 0, fmt.Errorf("constraint: cannot evaluate bitvector op %d", op)
}

func b01(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
