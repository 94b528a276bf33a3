package solver

import (
	"fmt"

	"dise/internal/sym"
)

// truth is a three-valued logic value.
type truth int

const (
	truthUnknown truth = iota
	truthTrue
	truthFalse
)

func (t truth) not() truth {
	switch t {
	case truthTrue:
		return truthFalse
	case truthFalse:
		return truthTrue
	}
	return truthUnknown
}

// solve runs propagation + splitting search and returns the final result.
// The search tightens p.domains in place: a problem is solved once.
func (p *problem) solve(stats *Stats, budget *int) Result {
	if p.trivialUnsat {
		return Result{}
	}
	sat, unknown, model := p.search(p.domains, stats, budget)
	return Result{Sat: sat, Unknown: unknown, Model: model}
}

// search explores the current box. It returns (sat, unknown, model).
func (p *problem) search(domains []Interval, stats *Stats, budget *int) (bool, bool, map[string]int64) {
	if p.interrupt != nil && p.interrupt() != nil {
		// Cancelled mid-solve: report Unknown, like an exhausted budget.
		return false, true, nil
	}
	if !p.propagate(domains, stats) {
		return false, false, nil
	}
	// Classify constraints under the propagated box.
	allTrue := true
	var branchCon *conView
	for i := range p.views {
		switch p.truthOf(&p.views[i], domains) {
		case truthFalse:
			return false, false, nil
		case truthUnknown:
			allTrue = false
			if branchCon == nil {
				branchCon = &p.views[i]
			}
		}
	}
	if allTrue {
		return true, false, p.modelFrom(domains)
	}

	// Pick an unfixed variable from an undetermined constraint, preferring
	// the smallest domain (first-fail heuristic).
	v := -1
	var best int64
	for _, i := range branchCon.vars {
		d := domains[i]
		if d.Fixed() {
			continue
		}
		if v == -1 || d.Size() < best {
			v = i
			best = d.Size()
		}
	}
	if v == -1 {
		// All variables of the undetermined constraint are fixed; interval
		// evaluation was too weak (division/modulo). Decide concretely.
		if p.concreteTruth(branchCon, domains) != truthTrue {
			return false, false, nil
		}
		return p.searchWithout(branchCon.c, domains, stats, budget)
	}

	*budget--
	if *budget <= 0 {
		return false, true, nil
	}
	stats.SearchNodes++

	// The children of this node are searched one after another, and a
	// search keeps nothing of its box once it returns (a model is a fresh
	// map), so they share one buffer, refilled from this node's box.
	d := domains[v]
	child := make([]Interval, len(domains))
	if d.Size() <= 8 {
		// Enumerate ascending for deterministic, small models.
		sawUnknown := false
		for val := d.Lo; val <= d.Hi; val++ {
			copy(child, domains)
			child[v] = Singleton(val)
			sat, unknown, model := p.search(child, stats, budget)
			if sat {
				return true, false, model
			}
			sawUnknown = sawUnknown || unknown
		}
		return false, sawUnknown, nil
	}
	mid := d.Lo + (d.Hi-d.Lo)/2
	copy(child, domains)
	child[v] = Interval{Lo: d.Lo, Hi: mid}
	sat, unknownL, model := p.search(child, stats, budget)
	if sat {
		return true, false, model
	}
	copy(child, domains)
	child[v] = Interval{Lo: mid + 1, Hi: d.Hi}
	sat, unknownR, model := p.search(child, stats, budget)
	if sat {
		return true, false, model
	}
	return false, unknownL || unknownR, nil
}

// searchWithout recurses with one constraint removed (it has been decided
// true concretely).
func (p *problem) searchWithout(drop *constraint, domains []Interval, stats *Stats, budget *int) (bool, bool, map[string]int64) {
	sub := &problem{varNames: p.varNames, varIdx: p.varIdx, domains: p.domains, interrupt: p.interrupt}
	for _, v := range p.views {
		if v.c != drop {
			sub.views = append(sub.views, v)
		}
	}
	return sub.search(domains, stats, budget)
}

func (p *problem) modelFrom(domains []Interval) map[string]int64 {
	model := make(map[string]int64, len(p.varNames))
	for i, name := range p.varNames {
		model[name] = domains[i].Lo
	}
	return model
}

// concreteTruth evaluates a constraint whose variables are all fixed.
// Runtime evaluation errors (division by zero) make the constraint false:
// the corresponding concrete execution would raise an exception rather than
// follow the path.
func (p *problem) concreteTruth(v *conView, domains []Interval) truth {
	env := map[string]int64{}
	for _, i := range v.vars {
		env[p.varNames[i]] = domains[i].Lo
	}
	val, err := EvalInt01(v.c.expr, env)
	if err != nil || val == 0 {
		return truthFalse
	}
	return truthTrue
}

// EvalInt01 evaluates an expression under the solver's uniform integer
// encoding: booleans are 0/1 integers, so boolean inputs, boolean constants
// and logical operators all evaluate over int64. Division or modulo by zero
// returns an error.
func EvalInt01(e sym.Expr, env map[string]int64) (int64, error) {
	switch e := e.(type) {
	case *sym.IntConst:
		return e.V, nil
	case *sym.BoolConst:
		if e.V {
			return 1, nil
		}
		return 0, nil
	case *sym.Var:
		v, ok := env[e.Name]
		if !ok {
			return 0, fmt.Errorf("solver.EvalInt01: unbound variable %q", e.Name)
		}
		return v, nil
	case *sym.Neg:
		v, err := EvalInt01(e.X, env)
		return -v, err
	case *sym.Ite:
		c, err := EvalInt01(e.Cond, env)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return EvalInt01(e.Then, env)
		}
		return EvalInt01(e.Else, env)
	case *sym.Not:
		v, err := EvalInt01(e.X, env)
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case *sym.Bin:
		l, err := EvalInt01(e.L, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case sym.OpAnd:
			if l == 0 {
				return 0, nil
			}
			return clamp01(EvalInt01(e.R, env))
		case sym.OpOr:
			if l != 0 {
				return 1, nil
			}
			return clamp01(EvalInt01(e.R, env))
		}
		r, err := EvalInt01(e.R, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case sym.OpAdd:
			return l + r, nil
		case sym.OpSub:
			return l - r, nil
		case sym.OpMul:
			return l * r, nil
		case sym.OpDiv:
			if r == 0 {
				return 0, fmt.Errorf("solver.EvalInt01: division by zero")
			}
			return l / r, nil
		case sym.OpMod:
			if r == 0 {
				return 0, fmt.Errorf("solver.EvalInt01: modulo by zero")
			}
			return l % r, nil
		}
		if e.Op.IsComparison() {
			if evalCmp01(e.Op, l, r) {
				return 1, nil
			}
			return 0, nil
		}
	}
	return 0, fmt.Errorf("solver.EvalInt01: unknown expression %T", e)
}

func clamp01(v int64, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	if v != 0 {
		return 1, nil
	}
	return 0, nil
}

func evalCmp01(op sym.Op, a, b int64) bool {
	switch op {
	case sym.OpEQ:
		return a == b
	case sym.OpNE:
		return a != b
	case sym.OpLT:
		return a < b
	case sym.OpLE:
		return a <= b
	case sym.OpGT:
		return a > b
	case sym.OpGE:
		return a >= b
	}
	return false
}

// truthOf determines the status of a constraint under the current box,
// using concrete evaluation when every variable is fixed.
func (p *problem) truthOf(v *conView, domains []Interval) truth {
	switch v.c.kind {
	case conLinear:
		lo, hi := linBounds(v, domains)
		switch v.c.op {
		case sym.OpLE:
			if hi <= 0 {
				return truthTrue
			}
			if lo > 0 {
				return truthFalse
			}
		case sym.OpEQ:
			if lo == 0 && hi == 0 {
				return truthTrue
			}
			if lo > 0 || hi < 0 {
				return truthFalse
			}
		case sym.OpNE:
			if lo > 0 || hi < 0 {
				return truthTrue
			}
			if lo == 0 && hi == 0 {
				return truthFalse
			}
		}
		return truthUnknown
	default:
		allFixed := true
		for _, i := range v.vars {
			if !domains[i].Fixed() {
				allFixed = false
				break
			}
		}
		if allFixed {
			return p.concreteTruth(v, domains)
		}
		return p.evalTruth(v.c.expr, domains)
	}
}

// linBounds computes [min, max] of a resolved linear form over the box.
func linBounds(v *conView, domains []Interval) (int64, int64) {
	lo, hi := v.konst, v.konst
	for _, t := range v.terms {
		d := domains[t.idx]
		if t.coeff > 0 {
			lo = satAdd(lo, satMul(t.coeff, d.Lo))
			hi = satAdd(hi, satMul(t.coeff, d.Hi))
		} else {
			lo = satAdd(lo, satMul(t.coeff, d.Hi))
			hi = satAdd(hi, satMul(t.coeff, d.Lo))
		}
	}
	return lo, hi
}

// maxPropagationPasses caps the fixpoint loop: bounds consistency can
// converge one unit per pass on adversarial constraint pairs (the same-form
// intersection in newProblem removes the common cases, this cap bounds the
// rest). Stopping early is sound — the search continues on the partially
// tightened box.
const maxPropagationPasses = 64

// propagate tightens domains to bounds consistency. It returns false on
// conflict (some domain became empty or a constraint is unsatisfiable).
func (p *problem) propagate(domains []Interval, stats *Stats) bool {
	for changed, passes := true, 0; changed && passes < maxPropagationPasses; passes++ {
		changed = false
		stats.Propagations++
		for i := range p.views {
			v := &p.views[i]
			switch v.c.kind {
			case conLinear:
				ok, ch := p.propagateLinear(v, domains)
				if !ok {
					return false
				}
				changed = changed || ch
			case conOpaque:
				if p.evalTruth(v.c.expr, domains) == truthFalse {
					return false
				}
			}
		}
	}
	return true
}

// propagateLinear applies bounds consistency to "lin ⋈ 0".
func (p *problem) propagateLinear(v *conView, domains []Interval) (ok, changed bool) {
	lo, hi := linBounds(v, domains)
	switch v.c.op {
	case sym.OpLE:
		if lo > 0 {
			return false, false
		}
		if hi <= 0 {
			return true, false // satisfied, nothing to do
		}
		return tightenLE(v.terms, domains, lo, false)
	case sym.OpEQ:
		if lo > 0 || hi < 0 {
			return false, false
		}
		ok1, ch1 := tightenLE(v.terms, domains, lo, false)
		if !ok1 {
			return false, false
		}
		// Negated form -lin <= 0: its minimum is -max(lin), recomputed after
		// the first tightening pass.
		_, hi2 := linBounds(v, domains)
		ok2, ch2 := tightenLE(v.terms, domains, -hi2, true)
		if !ok2 {
			return false, false
		}
		return true, ch1 || ch2
	case sym.OpNE:
		if lo == 0 && hi == 0 {
			return false, false
		}
		if lo > 0 || hi < 0 {
			return true, false
		}
		// Bounds-consistency on !=: only prunes when a single variable is
		// unfixed and sits exactly at a forbidden endpoint.
		return p.tightenNE(v, domains)
	}
	return true, false
}

// tightenLE enforces Σ ci·xi + K <= 0 (or its negation when negated is set)
// on each variable's bounds. sumLo is the precomputed minimum of the
// (possibly negated) form.
func tightenLE(terms []term, domains []Interval, sumLo int64, negated bool) (ok, changed bool) {
	for _, t := range terms {
		coeff := t.coeff
		if negated {
			coeff = -coeff
		}
		d := domains[t.idx]
		// Minimum contribution of this term.
		var termLo int64
		if coeff > 0 {
			termLo = satMul(coeff, d.Lo)
		} else {
			termLo = satMul(coeff, d.Hi)
		}
		restLo := satAdd(sumLo, -termLo) // min of the form without this term
		// coeff*x <= -restLo
		bound := -restLo
		if coeff > 0 {
			maxX := floorDiv(bound, coeff)
			if maxX < d.Hi {
				d.Hi = maxX
				domains[t.idx] = d
				changed = true
			}
		} else {
			minX := ceilDiv(bound, coeff)
			if minX > d.Lo {
				d.Lo = minX
				domains[t.idx] = d
				changed = true
			}
		}
		if domains[t.idx].Empty() {
			return false, changed
		}
	}
	return true, changed
}

// tightenNE prunes endpoints for Σ ci·xi + K != 0 when exactly one variable
// is unfixed.
func (p *problem) tightenNE(v *conView, domains []Interval) (ok, changed bool) {
	unfixedIdx := -1
	var unfixedCoeff int64
	rest := v.konst
	for _, t := range v.terms {
		d := domains[t.idx]
		if d.Fixed() {
			rest = satAdd(rest, satMul(t.coeff, d.Lo))
			continue
		}
		if unfixedIdx != -1 {
			return true, false // more than one unfixed: no pruning
		}
		unfixedIdx = t.idx
		unfixedCoeff = t.coeff
	}
	if unfixedIdx == -1 {
		if rest == 0 {
			return false, false
		}
		return true, false
	}
	// coeff*x + rest != 0 → x != -rest/coeff when divisible.
	if (-rest)%unfixedCoeff != 0 {
		return true, false
	}
	forbidden := (-rest) / unfixedCoeff
	d := domains[unfixedIdx]
	if d.Lo == forbidden {
		d.Lo++
		changed = true
	}
	if d.Hi == forbidden {
		d.Hi--
		changed = true
	}
	domains[unfixedIdx] = d
	if d.Empty() {
		return false, changed
	}
	return true, changed
}

// evalIv computes interval bounds of an integer-typed expression.
func (p *problem) evalIv(e sym.Expr, domains []Interval) Interval {
	switch e := e.(type) {
	case *sym.IntConst:
		return Singleton(e.V)
	case *sym.BoolConst:
		if e.V {
			return Singleton(1)
		}
		return Singleton(0)
	case *sym.Var:
		if i, ok := p.varIdx[e.Name]; ok {
			return domains[i]
		}
		return Full
	case *sym.Neg:
		return negIv(p.evalIv(e.X, domains))
	case *sym.Ite:
		// Guard-aware bounds: a decided guard selects one arm's interval,
		// an undecided one yields the hull of both arms.
		switch p.evalTruth(e.Cond, domains) {
		case truthTrue:
			return p.evalIv(e.Then, domains)
		case truthFalse:
			return p.evalIv(e.Else, domains)
		}
		t := p.evalIv(e.Then, domains)
		f := p.evalIv(e.Else, domains)
		return Interval{Lo: min2(t.Lo, f.Lo), Hi: max2(t.Hi, f.Hi)}
	case *sym.Bin:
		l := p.evalIv(e.L, domains)
		r := p.evalIv(e.R, domains)
		switch e.Op {
		case sym.OpAdd:
			return addIv(l, r)
		case sym.OpSub:
			return subIv(l, r)
		case sym.OpMul:
			return mulIv(l, r)
		case sym.OpDiv:
			return divIv(l, r)
		case sym.OpMod:
			return modIv(l, r)
		}
	}
	return Full
}

// evalTruth computes three-valued truth of a boolean expression.
func (p *problem) evalTruth(e sym.Expr, domains []Interval) truth {
	switch e := e.(type) {
	case *sym.BoolConst:
		if e.V {
			return truthTrue
		}
		return truthFalse
	case *sym.Var:
		if i, ok := p.varIdx[e.Name]; ok {
			d := domains[i]
			if d.Fixed() {
				if d.Lo != 0 {
					return truthTrue
				}
				return truthFalse
			}
		}
		return truthUnknown
	case *sym.Not:
		return p.evalTruth(e.X, domains).not()
	case *sym.Ite:
		// A boolean-typed ite (only raw literals reach here — the smart
		// constructor folds boolean arms into connectives): a decided guard
		// selects an arm, agreeing arms decide regardless of the guard.
		c := p.evalTruth(e.Cond, domains)
		t := p.evalTruth(e.Then, domains)
		f := p.evalTruth(e.Else, domains)
		switch c {
		case truthTrue:
			return t
		case truthFalse:
			return f
		}
		if t == f {
			return t
		}
		return truthUnknown
	case *sym.Bin:
		switch e.Op {
		case sym.OpAnd:
			l := p.evalTruth(e.L, domains)
			r := p.evalTruth(e.R, domains)
			if l == truthFalse || r == truthFalse {
				return truthFalse
			}
			if l == truthTrue && r == truthTrue {
				return truthTrue
			}
			return truthUnknown
		case sym.OpOr:
			l := p.evalTruth(e.L, domains)
			r := p.evalTruth(e.R, domains)
			if l == truthTrue || r == truthTrue {
				return truthTrue
			}
			if l == truthFalse && r == truthFalse {
				return truthFalse
			}
			return truthUnknown
		}
		if e.Op.IsComparison() {
			l := p.evalIv(e.L, domains)
			r := p.evalIv(e.R, domains)
			return cmpIv(e.Op, l, r)
		}
	}
	return truthUnknown
}

func cmpIv(op sym.Op, l, r Interval) truth {
	switch op {
	case sym.OpEQ:
		if l.Hi < r.Lo || r.Hi < l.Lo {
			return truthFalse
		}
		if l.Fixed() && r.Fixed() && l.Lo == r.Lo {
			return truthTrue
		}
	case sym.OpNE:
		if l.Hi < r.Lo || r.Hi < l.Lo {
			return truthTrue
		}
		if l.Fixed() && r.Fixed() && l.Lo == r.Lo {
			return truthFalse
		}
	case sym.OpLT:
		if l.Hi < r.Lo {
			return truthTrue
		}
		if l.Lo >= r.Hi {
			return truthFalse
		}
	case sym.OpLE:
		if l.Hi <= r.Lo {
			return truthTrue
		}
		if l.Lo > r.Hi {
			return truthFalse
		}
	case sym.OpGT:
		if l.Lo > r.Hi {
			return truthTrue
		}
		if l.Hi <= r.Lo {
			return truthFalse
		}
	case sym.OpGE:
		if l.Lo >= r.Hi {
			return truthTrue
		}
		if l.Hi < r.Lo {
			return truthFalse
		}
	}
	return truthUnknown
}
