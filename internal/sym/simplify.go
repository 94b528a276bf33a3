package sym

// Smart constructors with algebraic simplification. Symbolic execution
// builds expressions at every assignment and branch; folding constants and
// trivial identities keeps path conditions small, mirrors what SPF's
// expression factory does, and gives the constraint solver simpler input.
// Every constructor returns a canonical node from the intern table
// (intern.go), so the expressions the engine builds are comparable by
// pointer.

// Add returns l + r simplified.
func Add(l, r Expr) Expr {
	if c, ok := foldConst(OpAdd, l, r); ok {
		return c
	}
	if lc, ok := l.(*IntConst); ok && lc.V == 0 {
		return r
	}
	if rc, ok := r.(*IntConst); ok && rc.V == 0 {
		return l
	}
	// Re-associate (x + c1) + c2 → x + (c1+c2): common for chains like
	// PedalCmd = PedalCmd + 1 repeated along a path.
	if rc, ok := r.(*IntConst); ok {
		if lb, ok := l.(*Bin); ok && lb.Op == OpAdd {
			if lrc, ok := lb.R.(*IntConst); ok {
				return Add(lb.L, Add(lrc, rc))
			}
		}
		if lb, ok := l.(*Bin); ok && lb.Op == OpSub {
			if lrc, ok := lb.R.(*IntConst); ok {
				return Sub(lb.L, Sub(lrc, rc))
			}
		}
	}
	if e, ok := foldIteArith(OpAdd, l, r); ok {
		return e
	}
	return newBin(OpAdd, l, r)
}

// Sub returns l - r simplified.
func Sub(l, r Expr) Expr {
	if c, ok := foldConst(OpSub, l, r); ok {
		return c
	}
	if lc, ok := l.(*IntConst); ok && lc.V == 0 {
		return NegE(r)
	}
	if rc, ok := r.(*IntConst); ok && rc.V == 0 {
		return l
	}
	if Equal(l, r) {
		return Zero
	}
	if rc, ok := r.(*IntConst); ok {
		if lb, ok := l.(*Bin); ok && lb.Op == OpAdd {
			if lrc, ok := lb.R.(*IntConst); ok {
				return Add(lb.L, Sub(lrc, rc))
			}
		}
		if lb, ok := l.(*Bin); ok && lb.Op == OpSub {
			if lrc, ok := lb.R.(*IntConst); ok {
				return Sub(lb.L, Add(lrc, rc))
			}
		}
	}
	if e, ok := foldIteArith(OpSub, l, r); ok {
		return e
	}
	return newBin(OpSub, l, r)
}

// Mul returns l * r simplified.
func Mul(l, r Expr) Expr {
	if c, ok := foldConst(OpMul, l, r); ok {
		return c
	}
	if lc, ok := l.(*IntConst); ok {
		switch lc.V {
		case 0:
			return Zero
		case 1:
			return r
		}
	}
	if rc, ok := r.(*IntConst); ok {
		switch rc.V {
		case 0:
			return Zero
		case 1:
			return l
		}
	}
	if e, ok := foldIteArith(OpMul, l, r); ok {
		return e
	}
	return newBin(OpMul, l, r)
}

// Div returns l / r simplified (truncating integer division; division by the
// zero constant is left symbolic and surfaces as an infeasible/opaque
// constraint downstream rather than panicking here).
func Div(l, r Expr) Expr {
	if c, ok := foldConst(OpDiv, l, r); ok {
		return c
	}
	if rc, ok := r.(*IntConst); ok && rc.V == 1 {
		return l
	}
	if lc, ok := l.(*IntConst); ok && lc.V == 0 {
		if rc, ok := r.(*IntConst); !ok || rc.V != 0 {
			return Zero
		}
	}
	return newBin(OpDiv, l, r)
}

// Mod returns l % r simplified.
func Mod(l, r Expr) Expr {
	if c, ok := foldConst(OpMod, l, r); ok {
		return c
	}
	if rc, ok := r.(*IntConst); ok && (rc.V == 1 || rc.V == -1) {
		return Zero
	}
	return newBin(OpMod, l, r)
}

// NegE returns -x simplified.
func NegE(x Expr) Expr {
	switch x := x.(type) {
	case *IntConst:
		return Int(-x.V)
	case *Neg:
		return x.X
	case *Ite:
		if constArmedITE(x) {
			return ITE(x.Cond, NegE(x.Then), NegE(x.Else))
		}
	}
	return newNeg(x)
}

// ITE returns ite(cond, t, e) simplified — the functional if-then-else that
// state merging introduces when fusing sibling environments at CFG join
// points. Identities applied: constant guard selects an arm; equal arms
// collapse; a negated guard swaps arms (so ite(c,a,b) and ite(!c,b,a)
// intern to one node); boolean-constant arms fold into plain connectives
// (ite(c,true,x) = c||x, ite(c,false,x) = !c&&x, and mirrored), keeping
// guard logic out of value position; a nested ite on the same guard
// collapses to the arm the guard forces.
func ITE(cond, t, e Expr) Expr {
	if cb, ok := cond.(*BoolConst); ok {
		if cb.V {
			return t
		}
		return e
	}
	if n, ok := cond.(*Not); ok {
		return ITE(n.X, e, t)
	}
	if Equal(t, e) {
		return t
	}
	if tb, ok := t.(*BoolConst); ok {
		if tb.V {
			return OrE(cond, e)
		}
		return AndE(NotE(cond), e)
	}
	if eb, ok := e.(*BoolConst); ok {
		if eb.V {
			return OrE(NotE(cond), t)
		}
		return AndE(cond, t)
	}
	if ti, ok := t.(*Ite); ok && Equal(ti.Cond, cond) {
		t = ti.Then
	}
	if ei, ok := e.(*Ite); ok && Equal(ei.Cond, cond) {
		e = ei.Else
	}
	if Equal(t, e) {
		return t
	}
	return newITE(cond, t, e)
}

// Cmp returns (l op r) simplified, for comparison operators.
func Cmp(op Op, l, r Expr) Expr {
	if !op.IsComparison() {
		panic("sym.Cmp: operator is not a comparison: " + op.String())
	}
	if lc, ok := l.(*IntConst); ok {
		if rc, ok := r.(*IntConst); ok {
			return Bool(op.Holds(lc.V, rc.V))
		}
	}
	if lb, ok := l.(*BoolConst); ok {
		if rb, ok := r.(*BoolConst); ok {
			switch op {
			case OpEQ:
				return Bool(lb.V == rb.V)
			case OpNE:
				return Bool(lb.V != rb.V)
			}
		}
	}
	if Equal(l, r) {
		switch op {
		case OpEQ, OpLE, OpGE:
			return True
		case OpNE, OpLT, OpGT:
			return False
		}
	}
	// Canonicalize a constant on the left (0 == x → x == 0, 3 < x → x > 3):
	// the two spellings denote the same relation, and normalizing them keeps
	// path conditions readable and makes the canonical rendering stable
	// under operand-order edits — which is what lets the version-chain memo
	// (internal/memo) recognize a reordered-but-equivalent constraint as the
	// same conjunction.
	if isConstExpr(l) && !isConstExpr(r) {
		op, l, r = op.Swap(), r, l
	}
	// A comparison of a constant-armed ite chain (the shape state merging
	// gives environments that differ only in concrete values) against a
	// constant folds through the arms: every leaf comparison is decided
	// concretely, so the whole thing reduces to guard logic the solver's
	// linear machinery understands, instead of an opaque constraint.
	if li, ok := l.(*Ite); ok {
		if rc, ok := r.(*IntConst); ok && constArmedITE(li) {
			return liftCmpITE(op, li, rc)
		}
	}
	return newBin(op, l, r)
}

// constArmedITE reports an ite chain whose leaves are all integer
// constants. Comparisons and arithmetic against such chains fold through
// the arms (Cmp, foldIteArith), keeping merged-state constraints inside the
// solver's decidable fragment.
func constArmedITE(e Expr) bool {
	for {
		ite, ok := e.(*Ite)
		if !ok {
			_, ok := e.(*IntConst)
			return ok
		}
		if !constArmedITE(ite.Then) {
			return false
		}
		e = ite.Else
	}
}

// liftCmpITE distributes (e ⋈ r) over the arms of a constant-armed ite
// chain. The leaf comparisons fold to boolean constants, and the ITE
// constructor's boolean-arm rules then reduce the result to guard logic.
func liftCmpITE(op Op, e Expr, r *IntConst) Expr {
	if ite, ok := e.(*Ite); ok {
		return ITE(ite.Cond, liftCmpITE(op, ite.Then, r), liftCmpITE(op, ite.Else, r))
	}
	return Cmp(op, e, r)
}

// foldIteArith pushes an arithmetic operation with one constant operand
// through a constant-armed ite chain on the other side, preserving the
// chain's constant-armed normal form across sequential assignments (the
// arms fold to fresh constants). Non-constant arms are left alone — the
// fold would duplicate arbitrary subtrees.
func foldIteArith(op Op, l, r Expr) (Expr, bool) {
	if li, ok := l.(*Ite); ok && isConstExpr(r) && constArmedITE(li) {
		return ITE(li.Cond, binArith(op, li.Then, r), binArith(op, li.Else, r)), true
	}
	if ri, ok := r.(*Ite); ok && isConstExpr(l) && constArmedITE(ri) {
		return ITE(ri.Cond, binArith(op, l, ri.Then), binArith(op, l, ri.Else)), true
	}
	return nil, false
}

func binArith(op Op, l, r Expr) Expr {
	switch op {
	case OpAdd:
		return Add(l, r)
	case OpSub:
		return Sub(l, r)
	case OpMul:
		return Mul(l, r)
	}
	panic("sym.binArith: not a foldable operator: " + op.String())
}

// isConstExpr reports a literal constant operand.
func isConstExpr(e Expr) bool {
	switch e.(type) {
	case *IntConst, *BoolConst:
		return true
	}
	return false
}

// foldConst folds l op r to a constant when both operands are integer
// constants and the operation does not trap.
func foldConst(op Op, l, r Expr) (Expr, bool) {
	lc, ok := l.(*IntConst)
	if !ok {
		return nil, false
	}
	rc, ok := r.(*IntConst)
	if !ok {
		return nil, false
	}
	v, ok := op.Arith(lc.V, rc.V)
	if !ok {
		return nil, false
	}
	return Int(v), true
}

// AndE returns l && r simplified.
func AndE(l, r Expr) Expr {
	if lb, ok := l.(*BoolConst); ok {
		if !lb.V {
			return False
		}
		return r
	}
	if rb, ok := r.(*BoolConst); ok {
		if !rb.V {
			return False
		}
		return l
	}
	return newBin(OpAnd, l, r)
}

// OrE returns l || r simplified.
func OrE(l, r Expr) Expr {
	if lb, ok := l.(*BoolConst); ok {
		if lb.V {
			return True
		}
		return r
	}
	if rb, ok := r.(*BoolConst); ok {
		if rb.V {
			return True
		}
		return l
	}
	return newBin(OpOr, l, r)
}

// NotE returns !x simplified: constants fold, double negation cancels, and
// negation is pushed through comparisons (¬(a < b) → a >= b) and through
// &&/|| by De Morgan, producing negation-normal form incrementally. This is
// what keeps path conditions readable as lists of atomic comparisons.
func NotE(x Expr) Expr {
	switch x := x.(type) {
	case *BoolConst:
		return Bool(!x.V)
	case *Not:
		return x.X
	case *Bin:
		switch {
		case x.Op.IsComparison():
			return Cmp(x.Op.Negate(), x.L, x.R)
		case x.Op == OpAnd:
			return OrE(NotE(x.L), NotE(x.R))
		case x.Op == OpOr:
			return AndE(NotE(x.L), NotE(x.R))
		}
	}
	return newNot(x)
}

// Subst returns e with every variable replaced per env; variables absent
// from env are left symbolic.
func Subst(e Expr, env map[string]Expr) Expr {
	switch e := e.(type) {
	case *IntConst, *BoolConst:
		return e
	case *Var:
		if r, ok := env[e.Name]; ok {
			return r
		}
		return e
	case *Neg:
		return NegE(Subst(e.X, env))
	case *Not:
		return NotE(Subst(e.X, env))
	case *Ite:
		return ITE(Subst(e.Cond, env), Subst(e.Then, env), Subst(e.Else, env))
	case *Bin:
		l := Subst(e.L, env)
		r := Subst(e.R, env)
		switch {
		case e.Op == OpAdd:
			return Add(l, r)
		case e.Op == OpSub:
			return Sub(l, r)
		case e.Op == OpMul:
			return Mul(l, r)
		case e.Op == OpDiv:
			return Div(l, r)
		case e.Op == OpMod:
			return Mod(l, r)
		case e.Op.IsComparison():
			return Cmp(e.Op, l, r)
		case e.Op == OpAnd:
			return AndE(l, r)
		case e.Op == OpOr:
			return OrE(l, r)
		}
	}
	panic("sym.Subst: unknown expression")
}
