package sym

import "fmt"

// The concrete meaning of an expression, defined once: the engine's witness
// test, every solver backend's leaf check and the smart constructors' folds
// all evaluate through Arith, Holds and Eval. Integers are int64 and wrap
// on overflow; / and % truncate toward zero, and by zero they trap (the
// Java ArithmeticException a concrete run would raise); booleans are the
// integers 0 and 1, so boolean inputs, constants and connectives evaluate
// over int64 like everything else.

// Arith computes a op b for a binary arithmetic operator, wrapping on
// overflow (MinInt64 / -1 is MinInt64, MinInt64 % -1 is 0). ok is false
// for division and remainder by zero.
func (o Op) Arith(a, b int64) (v int64, ok bool) {
	switch o {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	}
	panic("sym: not an arithmetic operator: " + o.String())
}

// Holds decides the comparison a o b.
func (o Op) Holds(a, b int64) bool {
	switch o {
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	}
	panic("sym: not a comparison: " + o.String())
}

// Binding supplies the values of an expression's variables to Eval.
type Binding interface {
	// Value returns the value bound to name; ok is false when name is
	// unbound.
	Value(name string) (v int64, ok bool)
}

// Values is a Binding over a map.
type Values map[string]int64

// Value returns the value bound to name.
func (m Values) Value(name string) (int64, bool) {
	v, ok := m[name]
	return v, ok
}

// Eval evaluates e under b, booleans as 0/1. An unbound variable, and
// division or remainder by zero, return an error; && and || evaluate their
// right operand only when the left does not decide them. Eval is generic so
// that no binding is boxed into an interface on the hot paths that call it.
func Eval[B Binding](e Expr, b B) (int64, error) {
	switch e := e.(type) {
	case *IntConst:
		return e.V, nil
	case *BoolConst:
		return b01(e.V), nil
	case *Var:
		v, ok := b.Value(e.Name)
		if !ok {
			return 0, fmt.Errorf("sym.Eval: unbound variable %q", e.Name)
		}
		return v, nil
	case *Neg:
		v, err := Eval(e.X, b)
		return -v, err
	case *Not:
		v, err := Eval(e.X, b)
		if err != nil {
			return 0, err
		}
		return b01(v == 0), nil
	case *Ite:
		c, err := Eval(e.Cond, b)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return Eval(e.Then, b)
		}
		return Eval(e.Else, b)
	case *Bin:
		l, err := Eval(e.L, b)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case OpAnd, OpOr:
			// A false left operand decides &&, a true one decides ||.
			if (l != 0) == (e.Op == OpOr) {
				return b01(l != 0), nil
			}
			r, err := Eval(e.R, b)
			return b01(r != 0), err
		}
		r, err := Eval(e.R, b)
		if err != nil {
			return 0, err
		}
		switch {
		case e.Op.IsArith():
			v, ok := e.Op.Arith(l, r)
			if !ok {
				return 0, fmt.Errorf("sym.Eval: %s by zero", e.Op)
			}
			return v, nil
		case e.Op.IsComparison():
			return b01(e.Op.Holds(l, r)), nil
		}
	}
	return 0, fmt.Errorf("sym.Eval: unknown expression %T", e)
}

// b01 encodes a boolean as 0/1.
func b01(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
