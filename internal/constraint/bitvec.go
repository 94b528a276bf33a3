package constraint

import (
	"fmt"
	"sort"

	"dise/internal/solver"
	"dise/internal/sym"
)

// bitvecBackend is a pure-Go fixed-width bitvector solver: arithmetic wraps
// modulo 2^W, and the mini-language's operators map to their signed W-bit
// forms (terms of the Builder in bvexpr.go). It decides stacks the same way
// the interval solver does — abstract refutation plus splitting search with
// exact concrete evaluation at the leaves — but its abstract domain is W-bit
// aware: any intermediate result that may wrap widens to the full signed
// range instead of saturating, so verdicts respect wraparound semantics.
//
// Incrementality: the shared PrefixCache recalls whole-stack verdicts
// across pop/re-push cycles and across the engines that share it; any other
// Check solves the whole stack. Unlike the interval backend there are no
// propagation snapshots to reuse (the abstract state is recomputed per
// solve).
type bitvecBackend struct {
	bld     *Builder
	domains map[string]solver.Interval // clamped to the signed W-bit range
	// index is the input index Result models are laid out over; the search
	// itself binds values to names.
	index     *solver.Index
	frames    []*bvFrame
	budget    int
	interrupt func() error
	cache     *PrefixCache
	stats     Stats

	transBoolMemo map[sym.Expr][]*BVExpr
	transBVMemo   map[sym.Expr]*BVExpr
}

// bvFrame is one assertion frame: the asserted expressions (translated and
// conjunction-flattened) and the prefix key of the stack ending here.
type bvFrame struct {
	cons []*BVExpr
	key  prefixKey
}

func newBitvecBackend(opts Options) (*bitvecBackend, error) {
	width := opts.Width
	if width == 0 {
		width = 64
	}
	bld, err := NewBuilder(width)
	if err != nil {
		return nil, err
	}
	budget := opts.NodeBudget
	if budget == 0 {
		budget = 1 << 16
	}
	domains := make(map[string]solver.Interval, len(opts.Domains))
	for name, d := range opts.Domains {
		domains[name] = d.Intersect(solver.Interval{Lo: bld.MinS(), Hi: bld.MaxS()})
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewPrefixCache(0)
	}
	b := &bitvecBackend{
		bld:           bld,
		domains:       domains,
		index:         solver.NewIndex(domains),
		budget:        budget,
		interrupt:     opts.Interrupt,
		cache:         cache,
		stats:         Stats{Backend: BackendBitvec},
		transBoolMemo: map[sym.Expr][]*BVExpr{},
		transBVMemo:   map[sym.Expr]*BVExpr{},
	}
	// Seed the key chain with the backend name AND width: bitvec verdicts
	// must never be confused with interval entries — or with bitvec
	// entries of a different width, whose wraparound semantics differ —
	// if a cache is ever shared.
	b.frames = []*bvFrame{{key: domainsKey(domains).extend(fmt.Sprintf("backend:%s/w%d", BackendBitvec, width))}}
	return b, nil
}

func (b *bitvecBackend) Push() {
	top := b.frames[len(b.frames)-1]
	b.frames = append(b.frames, &bvFrame{key: top.key})
	b.stats.PushedFrames++
}

func (b *bitvecBackend) Pop() {
	if len(b.frames) == 1 {
		panic("constraint: Pop on the base frame (push/pop imbalance)")
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.stats.PoppedFrames++
}

func (b *bitvecBackend) Assert(c sym.Expr) {
	top := b.frames[len(b.frames)-1]
	top.cons = append(top.cons, b.transBool(c)...)
	// Fingerprint-keyed like the interval backend (cache.go).
	top.key = top.key.extendFP(sym.Fingerprints(c))
	b.stats.Asserts++
}

func (b *bitvecBackend) Stats() Stats { return b.stats }
func (b *bitvecBackend) ResetStats()  { b.stats = Stats{Backend: BackendBitvec} }

func (b *bitvecBackend) Check() Result {
	b.stats.Checks++
	res := b.check()
	b.stats.Tally(res)
	return res
}

func (b *bitvecBackend) check() Result {
	top := b.frames[len(b.frames)-1]
	if ent, ok := b.cache.get(top.key); ok && ent.res != nil {
		b.stats.CacheHits++
		return *ent.res
	}
	b.stats.CacheMisses++
	b.stats.FullSolves++
	res := b.solve(b.stackCons())
	if !res.Unknown {
		b.cache.put(top.key, prefixEntry{res: &res})
	}
	return res
}

func (b *bitvecBackend) stackCons() []*BVExpr {
	var out []*BVExpr
	for _, f := range b.frames {
		out = append(out, f.cons...)
	}
	return out
}

// --- translation sym.Expr → BVExpr -------------------------------------------

// transBool translates an expression in boolean position, flattening
// top-level conjunctions into separate constraints (like the interval
// solver's compiler) so refinement and truth classification see atoms.
func (b *bitvecBackend) transBool(e sym.Expr) []*BVExpr {
	if cached, ok := b.transBoolMemo[e]; ok {
		return cached
	}
	var out []*BVExpr
	switch ex := e.(type) {
	case *sym.Bin:
		if ex.Op == sym.OpAnd {
			out = append(out, b.transBool(ex.L)...)
			out = append(out, b.transBool(ex.R)...)
		} else {
			out = []*BVExpr{b.transBoolAtom(e)}
		}
	default:
		out = []*BVExpr{b.transBoolAtom(e)}
	}
	b.transBoolMemo[e] = out
	return out
}

// transBoolAtom translates one non-conjunction boolean expression.
func (b *bitvecBackend) transBoolAtom(e sym.Expr) *BVExpr {
	switch ex := e.(type) {
	case *sym.BoolConst:
		return b.bld.Bool(ex.V)
	case *sym.Var:
		// A bare boolean variable as a constraint: v != 0 (bool domains are
		// 0/1, so this matches the interval solver's v == 1 compilation).
		return b.bld.Ne(b.bld.Var(ex.Name), b.bld.Const(0))
	case *sym.Not:
		return b.bld.BoolNot(b.transBoolAtom(ex.X))
	case *sym.Ite:
		// A boolean-typed ite in constraint position: (c && t) || (!c && e).
		c := b.transBoolAtom(ex.Cond)
		return b.bld.BoolOr(
			b.bld.BoolAnd(c, b.transBoolAtom(ex.Then)),
			b.bld.BoolAnd(b.bld.BoolNot(c), b.transBoolAtom(ex.Else)))
	case *sym.Bin:
		switch {
		case ex.Op == sym.OpAnd:
			l, r := b.transBoolAtom(ex.L), b.transBoolAtom(ex.R)
			return b.bld.BoolAnd(l, r)
		case ex.Op == sym.OpOr:
			return b.bld.BoolOr(b.transBoolAtom(ex.L), b.transBoolAtom(ex.R))
		case ex.Op.IsComparison():
			l, r := b.transBV(ex.L), b.transBV(ex.R)
			switch ex.Op {
			case sym.OpEQ:
				return b.bld.Eq(l, r)
			case sym.OpNE:
				return b.bld.Ne(l, r)
			case sym.OpLT:
				return b.bld.Slt(l, r)
			case sym.OpLE:
				return b.bld.Sle(l, r)
			case sym.OpGT:
				return b.bld.Sgt(l, r)
			case sym.OpGE:
				return b.bld.Sge(l, r)
			}
		}
	}
	// Arithmetic in boolean position (should not happen for type-checked
	// programs): non-zero is true.
	return b.bld.Ne(b.transBV(e), b.bld.Const(0))
}

// transBV translates an expression in value position. Booleans become 0/1
// W-bit values, mirroring the interval solver's uniform integer encoding.
func (b *bitvecBackend) transBV(e sym.Expr) *BVExpr {
	if cached, ok := b.transBVMemo[e]; ok {
		return cached
	}
	var out *BVExpr
	switch ex := e.(type) {
	case *sym.IntConst:
		out = b.bld.Const(ex.V)
	case *sym.BoolConst:
		if ex.V {
			out = b.bld.Const(1)
		} else {
			out = b.bld.Const(0)
		}
	case *sym.Var:
		out = b.bld.Var(ex.Name)
	case *sym.Neg:
		out = b.bld.Neg(b.transBV(ex.X))
	case *sym.Ite:
		out = b.bld.Ite(b.transBoolAtom(ex.Cond), b.transBV(ex.Then), b.transBV(ex.Else))
	case *sym.Not:
		out = b.transBoolAtom(e) // 0/1-valued
	case *sym.Bin:
		if ex.Op.IsArith() {
			l, r := b.transBV(ex.L), b.transBV(ex.R)
			switch ex.Op {
			case sym.OpAdd:
				out = b.bld.Add(l, r)
			case sym.OpSub:
				out = b.bld.Sub(l, r)
			case sym.OpMul:
				out = b.bld.Mul(l, r)
			case sym.OpDiv:
				out = b.bld.SDiv(l, r)
			case sym.OpMod:
				out = b.bld.SRem(l, r)
			}
		} else {
			out = b.transBoolAtom(e) // comparison/connective as 0/1 value
		}
	default:
		out = b.transBoolAtom(e)
	}
	b.transBVMemo[e] = out
	return out
}

// --- solving -----------------------------------------------------------------

// bvProblem is one solve instance over the full constraint set.
type bvProblem struct {
	b    *bitvecBackend
	cons []*BVExpr
	vars map[*BVExpr][]string // free variables per constraint
}

func (b *bitvecBackend) solve(cons []*BVExpr) Result {
	p := &bvProblem{b: b, cons: cons, vars: map[*BVExpr][]string{}}
	for _, c := range cons {
		p.vars[c] = bvVars(c)
	}
	dom := make(map[string]solver.Interval, len(b.domains))
	for name, d := range b.domains {
		dom[name] = d
	}
	// Variables mentioned by constraints but missing from the domain map get
	// the default input domain (clamped), like the interval solver.
	def := solver.DefaultDomain.Intersect(solver.Interval{Lo: b.bld.MinS(), Hi: b.bld.MaxS()})
	for _, names := range p.vars {
		for _, n := range names {
			if _, ok := dom[n]; !ok {
				dom[n] = def
			}
		}
	}
	budget := b.budget
	sat, unknown, model := p.search(dom, cons, &budget)
	res := Result{Sat: sat, Unknown: unknown}
	if sat {
		res.Model = solver.NewModel(b.index, model)
	}
	return res
}

// search explores the current box: refine → classify → split, with exact
// concrete evaluation once a constraint's variables are all fixed.
func (p *bvProblem) search(dom map[string]solver.Interval, cons []*BVExpr, budget *int) (bool, bool, map[string]int64) {
	if p.b.interrupt != nil && p.b.interrupt() != nil {
		return false, true, nil
	}
	if !p.refine(dom, cons) {
		return false, false, nil
	}
	allTrue := true
	var branchCon *BVExpr
	for _, c := range cons {
		switch p.truthOf(c, dom) {
		case truthBVFalse:
			return false, false, nil
		case truthBVUnknown:
			allTrue = false
			if branchCon == nil {
				branchCon = c
			}
		}
	}
	if allTrue {
		model := make(map[string]int64, len(dom))
		for name, d := range dom {
			model[name] = d.Lo
		}
		return true, false, model
	}

	// First-fail: split the smallest unfixed domain of the first undetermined
	// constraint.
	varName := ""
	var best int64
	for _, n := range p.vars[branchCon] {
		d := dom[n]
		if d.Fixed() {
			continue
		}
		if varName == "" || d.Size() < best {
			varName, best = n, d.Size()
		}
	}
	if varName == "" {
		// All variables fixed yet abstract evaluation was inconclusive
		// (division, wrapping): decide concretely and drop the constraint.
		if !p.concretelyTrue(branchCon, dom) {
			return false, false, nil
		}
		rest := make([]*BVExpr, 0, len(cons)-1)
		for _, c := range cons {
			if c != branchCon {
				rest = append(rest, c)
			}
		}
		return p.search(dom, rest, budget)
	}

	*budget--
	if *budget <= 0 {
		return false, true, nil
	}
	p.b.stats.SearchNodes++

	d := dom[varName]
	if d.Size() <= 8 {
		sawUnknown := false
		// Ascending enumeration with the loop bound checked AFTER the body:
		// v++ past d.Hi == MaxS would wrap and spin forever.
		for v := d.Lo; ; v++ {
			child := cloneDom(dom)
			child[varName] = solver.Singleton(v)
			sat, unknown, model := p.search(child, cons, budget)
			if sat {
				return true, false, model
			}
			sawUnknown = sawUnknown || unknown
			if v == d.Hi {
				break
			}
		}
		return false, sawUnknown, nil
	}
	mid := d.Lo + (d.Hi-d.Lo)/2
	for _, half := range []solver.Interval{{Lo: d.Lo, Hi: mid}, {Lo: mid + 1, Hi: d.Hi}} {
		child := cloneDom(dom)
		child[varName] = half
		sat, unknown, model := p.search(child, cons, budget)
		if sat {
			return true, false, model
		}
		if unknown {
			return false, true, nil
		}
	}
	return false, false, nil
}

func cloneDom(dom map[string]solver.Interval) map[string]solver.Interval {
	out := make(map[string]solver.Interval, len(dom))
	for k, v := range dom {
		out[k] = v
	}
	return out
}

func (p *bvProblem) concretelyTrue(c *BVExpr, dom map[string]solver.Interval) bool {
	env := map[string]uint64{}
	for _, n := range p.vars[c] {
		env[n] = p.b.bld.FromSigned(dom[n].Lo)
	}
	v, err := p.b.bld.Eval(c, env)
	return err == nil && v != 0
}

// refine applies backward (inverse) propagation of top-level comparisons to
// variable domains, to a small fixpoint. Sound: only assignments that
// cannot satisfy the comparison are removed. Returns false when a domain
// empties.
func (p *bvProblem) refine(dom map[string]solver.Interval, cons []*BVExpr) bool {
	for pass := 0; pass < 8; pass++ {
		changed := false
		for _, c := range cons {
			ok, ch := p.refineCon(dom, c)
			if !ok {
				return false
			}
			changed = changed || ch
		}
		if !changed {
			return true
		}
	}
	return true
}

// refineCon prunes var domains for a signed comparison with a variable on
// either side.
func (p *bvProblem) refineCon(dom map[string]solver.Interval, c *BVExpr) (ok, changed bool) {
	switch c.Op {
	case BVEq, BVNe, BVSlt, BVSle, BVSgt, BVSge:
	default:
		return true, false
	}
	ok, ch1 := p.refineSide(dom, c.L, c.Op, p.absEval(c.R, dom))
	if !ok {
		return false, ch1
	}
	ok, ch2 := p.refineSide(dom, c.R, swapBVCmp(c.Op), p.absEval(c.L, dom))
	return ok, ch1 || ch2
}

func swapBVCmp(op BVOp) BVOp {
	switch op {
	case BVSlt:
		return BVSgt
	case BVSle:
		return BVSge
	case BVSgt:
		return BVSlt
	case BVSge:
		return BVSle
	}
	return op // Eq, Ne symmetric
}

// refineSide clamps the domain of side (when it is a variable) so that
// "side op other" stays satisfiable for some value of the other side.
func (p *bvProblem) refineSide(dom map[string]solver.Interval, side *BVExpr, op BVOp, other solver.Interval) (ok, changed bool) {
	if side.Op != BVVar {
		return true, false
	}
	d, exists := dom[side.Name]
	if !exists {
		return true, false
	}
	nd := d
	switch op {
	case BVEq:
		nd = nd.Intersect(other)
	case BVNe:
		if other.Fixed() {
			forbidden := other.Lo
			if nd.Fixed() && nd.Lo == forbidden {
				// The domain is exactly the forbidden singleton: empty it
				// (incrementing/decrementing would overflow at the width's
				// extremes and wrap into a wrong full-range domain).
				nd = solver.Interval{Lo: 1, Hi: 0}
				break
			}
			if nd.Lo == forbidden {
				nd.Lo++
			}
			if nd.Hi == forbidden {
				nd.Hi--
			}
		}
	case BVSlt:
		if other.Hi < p.b.bld.MaxS() {
			nd = nd.Intersect(solver.Interval{Lo: p.b.bld.MinS(), Hi: other.Hi - 1})
		} else {
			nd = nd.Intersect(solver.Interval{Lo: p.b.bld.MinS(), Hi: p.b.bld.MaxS() - 1})
		}
	case BVSle:
		nd = nd.Intersect(solver.Interval{Lo: p.b.bld.MinS(), Hi: other.Hi})
	case BVSgt:
		if other.Lo > p.b.bld.MinS() {
			nd = nd.Intersect(solver.Interval{Lo: other.Lo + 1, Hi: p.b.bld.MaxS()})
		} else {
			nd = nd.Intersect(solver.Interval{Lo: p.b.bld.MinS() + 1, Hi: p.b.bld.MaxS()})
		}
	case BVSge:
		nd = nd.Intersect(solver.Interval{Lo: other.Lo, Hi: p.b.bld.MaxS()})
	}
	if nd == d {
		return true, false
	}
	dom[side.Name] = nd
	return !nd.Empty(), true
}

// --- abstract evaluation ------------------------------------------------------

type truthBV int

const (
	truthBVUnknown truthBV = iota
	truthBVTrue
	truthBVFalse
)

func (p *bvProblem) truthOf(c *BVExpr, dom map[string]solver.Interval) truthBV {
	iv := p.absEval(c, dom)
	switch {
	case iv.Lo == 1 && iv.Hi == 1:
		return truthBVTrue
	case iv.Lo == 0 && iv.Hi == 0:
		return truthBVFalse
	}
	return truthBVUnknown
}

// full is the widest signed interval of the backend's width.
func (p *bvProblem) full() solver.Interval {
	return solver.Interval{Lo: p.b.bld.MinS(), Hi: p.b.bld.MaxS()}
}

// absEval bounds the signed value of a term over the box. Any arithmetic
// that may cross the width boundary widens to the full range (wraparound),
// never saturates — the semantic difference from the interval solver.
func (p *bvProblem) absEval(e *BVExpr, dom map[string]solver.Interval) solver.Interval {
	bld := p.b.bld
	switch e.Op {
	case BVConst:
		return solver.Singleton(bld.ToSigned(e.Val))
	case BVBoolConst:
		return solver.Singleton(int64(e.Val))
	case BVVar:
		if d, ok := dom[e.Name]; ok {
			return d
		}
		return p.full()
	case BVIte:
		// Guard-aware: a decided guard (its 0/1 truth interval is a
		// singleton) selects one arm's bounds, an undecided one yields the
		// hull of both arms. Handled before the generic L/R path — the
		// ternary shape has no evalNode form.
		c := p.absEval(e.C, dom)
		switch {
		case c.Lo == 1:
			return p.absEval(e.L, dom)
		case c.Hi == 0:
			return p.absEval(e.R, dom)
		}
		t, f := p.absEval(e.L, dom), p.absEval(e.R, dom)
		return solver.Interval{Lo: min2(t.Lo, f.Lo), Hi: max2(t.Hi, f.Hi)}
	}
	l := p.absEval(e.L, dom)
	var r solver.Interval
	if e.R != nil {
		r = p.absEval(e.R, dom)
	}
	// Exact when both operands are fixed (concrete evaluation, which also
	// handles wrapping and division precisely). Evaluation errors (division
	// by zero) widen to full; the leaf check rejects them exactly.
	if l.Fixed() && (e.R == nil || r.Fixed()) {
		lv := bld.FromSigned(l.Lo)
		rv := bld.FromSigned(r.Lo)
		if v, err := bld.evalNode(e.Op, lv, rv); err == nil {
			if e.Op.IsBool() {
				return solver.Singleton(int64(v))
			}
			return solver.Singleton(bld.ToSigned(v))
		}
		return p.full()
	}
	switch e.Op {
	case BVAdd:
		return p.wrapIv(addChecked(l.Lo, r.Lo), addChecked(l.Hi, r.Hi))
	case BVSub:
		return p.wrapIv(subChecked(l.Lo, r.Hi), subChecked(l.Hi, r.Lo))
	case BVNeg:
		if l.Lo == bld.MinS() {
			return p.full() // -MinS wraps to MinS
		}
		return p.wrapIv(checked{-l.Hi, true}, checked{-l.Lo, true})
	case BVMul:
		c1, c2 := mulChecked(l.Lo, r.Lo), mulChecked(l.Lo, r.Hi)
		c3, c4 := mulChecked(l.Hi, r.Lo), mulChecked(l.Hi, r.Hi)
		if !(c1.ok && c2.ok && c3.ok && c4.ok) {
			return p.full()
		}
		return p.wrapIv(checked{min4(c1.v, c2.v, c3.v, c4.v), true}, checked{max4(c1.v, c2.v, c3.v, c4.v), true})
	case BVSDiv:
		return p.divIv(l, r)
	case BVSRem:
		return p.remIv(l, r)
	case BVEq:
		return cmpTruth(l.Fixed() && r.Fixed() && l.Lo == r.Lo, l.Hi < r.Lo || r.Hi < l.Lo)
	case BVNe:
		return cmpTruth(l.Hi < r.Lo || r.Hi < l.Lo, l.Fixed() && r.Fixed() && l.Lo == r.Lo)
	case BVSlt:
		return cmpTruth(l.Hi < r.Lo, l.Lo >= r.Hi)
	case BVSle:
		return cmpTruth(l.Hi <= r.Lo, l.Lo > r.Hi)
	case BVSgt:
		return cmpTruth(l.Lo > r.Hi, l.Hi <= r.Lo)
	case BVSge:
		return cmpTruth(l.Lo >= r.Hi, l.Hi < r.Lo)
	case BVBoolNot:
		return solver.Interval{Lo: 1 - l.Hi, Hi: 1 - l.Lo}
	case BVBoolAnd:
		// 0/1 truth intervals: definitely true iff both are, definitely
		// false iff either is.
		return solver.Interval{Lo: l.Lo * r.Lo, Hi: min2(l.Hi, r.Hi)}
	case BVBoolOr:
		return solver.Interval{Lo: max2(l.Lo, r.Lo), Hi: max2(l.Hi, r.Hi)}
	}
	return p.full()
}

// cmpTruth builds the [0,1] truth interval from "definitely true" /
// "definitely false" bounds evidence.
func cmpTruth(isTrue, isFalse bool) solver.Interval {
	switch {
	case isTrue:
		return solver.Singleton(1)
	case isFalse:
		return solver.Singleton(0)
	}
	return solver.Interval{Lo: 0, Hi: 1}
}

// divIv bounds truncated signed division, splitting the divisor around zero
// (truncated division is corner-monotone per sign region). The MinS/-1
// wraparound corner widens to full.
func (p *bvProblem) divIv(l, r solver.Interval) solver.Interval {
	if r.Lo == 0 && r.Hi == 0 {
		return p.full()
	}
	if l.Lo == p.b.bld.MinS() && r.Contains(-1) {
		return p.full()
	}
	out := solver.Interval{Lo: p.b.bld.MaxS(), Hi: p.b.bld.MinS()} // empty accumulator
	widen := func(part solver.Interval) {
		if part.Empty() {
			return
		}
		c1, c2 := l.Lo/part.Lo, l.Lo/part.Hi
		c3, c4 := l.Hi/part.Lo, l.Hi/part.Hi
		out.Lo = min2(out.Lo, min4(c1, c2, c3, c4))
		out.Hi = max2(out.Hi, max4(c1, c2, c3, c4))
	}
	widen(r.Intersect(solver.Interval{Lo: 1, Hi: p.b.bld.MaxS()}))
	widen(r.Intersect(solver.Interval{Lo: p.b.bld.MinS(), Hi: -1}))
	if out.Empty() {
		return p.full()
	}
	return out
}

// remIv bounds the signed remainder: |result| < max|divisor|, sign follows
// the dividend.
func (p *bvProblem) remIv(l, r solver.Interval) solver.Interval {
	m := max2(abs64(r.Lo), abs64(r.Hi))
	if m == 0 {
		return p.full()
	}
	bound := m - 1
	lo, hi := int64(0), int64(0)
	if l.Lo < 0 {
		lo = -bound
	}
	if l.Hi > 0 {
		hi = bound
	}
	return solver.Interval{Lo: lo, Hi: hi}
}

// checked is an int64 computation that may have overflowed.
type checked struct {
	v  int64
	ok bool
}

func addChecked(a, b int64) checked {
	s := a + b
	return checked{s, !((a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0))}
}

func subChecked(a, b int64) checked {
	s := a - b
	return checked{s, !((a >= 0 && b < 0 && s < 0) || (a < 0 && b > 0 && s >= 0))}
}

func mulChecked(a, b int64) checked {
	if a == 0 || b == 0 {
		return checked{0, true}
	}
	v := a * b
	return checked{v, v/b == a && !(a == -1 && b == minInt64) && !(b == -1 && a == minInt64)}
}

const minInt64 = -1 << 63

// wrapIv builds the interval [lo, hi] unless either bound overflowed int64
// or escaped the width's signed range — then the value may wrap, and the
// result widens to full.
func (p *bvProblem) wrapIv(lo, hi checked) solver.Interval {
	if !lo.ok || !hi.ok || lo.v < p.b.bld.MinS() || hi.v > p.b.bld.MaxS() {
		return p.full()
	}
	return solver.Interval{Lo: lo.v, Hi: hi.v}
}

func min4(a, b, c, d int64) int64 { return min2(min2(a, b), min2(c, d)) }
func max4(a, b, c, d int64) int64 { return max2(max2(a, b), max2(c, d)) }

func min2(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// bvVars collects the free variable names of a term, sorted.
func bvVars(e *BVExpr) []string {
	set := map[string]bool{}
	var walk func(*BVExpr)
	walk = func(e *BVExpr) {
		if e == nil {
			return
		}
		if e.Op == BVVar {
			set[e.Name] = true
		}
		walk(e.C)
		walk(e.L)
		walk(e.R)
	}
	walk(e)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	// Deterministic order matters for first-fail variable selection.
	sort.Strings(out)
	return out
}
