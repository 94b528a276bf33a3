package constraint

import (
	"maps"
	"math"

	"dise/internal/solver"
	"dise/internal/sym"
)

// bitvecBackend is a pure-Go 64-bit bitvector solver over the same sym
// expressions the interval backend reads. Arithmetic is two's complement
// and wraps modulo 2^64, exactly Go's int64 arithmetic (so MinInt64 / -1 is
// MinInt64 and MinInt64 % -1 is 0); comparisons are signed and booleans are
// 0/1 values. It decides stacks the same way the interval solver does —
// abstract refutation plus splitting search with exact concrete evaluation
// at the leaves — but its abstract domain is wraparound aware: any
// intermediate result that may overflow widens to the full int64 range
// instead of saturating, so verdicts respect wraparound semantics.
//
// Incrementality: the shared PrefixCache recalls whole-stack verdicts
// across pop/re-push cycles and across the engines that share it; any other
// Check solves the whole stack. Unlike the interval backend there are no
// propagation snapshots to reuse (the abstract state is recomputed per
// solve).
type bitvecBackend struct {
	domains map[string]solver.Interval
	// index is the input index Result models are laid out over; the search
	// itself binds values to names.
	index     *solver.Index
	frames    []*bvFrame
	budget    int
	interrupt func() error
	cache     *PrefixCache
	stats     Stats
}

// bvFrame is one assertion frame: the asserted atoms (top-level
// conjunctions flattened) and the prefix key of the stack ending here.
type bvFrame struct {
	cons []sym.Expr
	key  prefixKey
}

// fullRange bounds a value the abstract domain knows nothing about.
var fullRange = solver.Interval{Lo: math.MinInt64, Hi: math.MaxInt64}

func newBitvecBackend(opts Options) *bitvecBackend {
	budget := opts.NodeBudget
	if budget == 0 {
		budget = 1 << 16
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewPrefixCache(0)
	}
	b := &bitvecBackend{
		domains:   opts.Domains,
		index:     solver.NewIndex(opts.Domains),
		budget:    budget,
		interrupt: opts.Interrupt,
		cache:     cache,
		stats:     Stats{Backend: BackendBitvec},
	}
	// Seed the key chain with the backend name: bitvec verdicts must never
	// be confused with interval entries when a cache is shared.
	b.frames = []*bvFrame{{key: domainsKey(opts.Domains).extend("backend:" + BackendBitvec)}}
	return b
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
	top.cons = appendAtoms(top.cons, c)
	// Fingerprint-keyed like the interval backend (cache.go).
	top.key = top.key.extendFP(sym.Fingerprints(c))
	b.stats.Asserts++
}

// appendAtoms appends c to out with its top-level conjunctions flattened
// (like the interval solver's compiler), so refinement and truth
// classification see atoms.
func appendAtoms(out []sym.Expr, c sym.Expr) []sym.Expr {
	if and, ok := c.(*sym.Bin); ok && and.Op == sym.OpAnd {
		return appendAtoms(appendAtoms(out, and.L), and.R)
	}
	return append(out, c)
}

func (b *bitvecBackend) Stats() Stats { return b.stats }

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

func (b *bitvecBackend) stackCons() []sym.Expr {
	var out []sym.Expr
	for _, f := range b.frames {
		out = append(out, f.cons...)
	}
	return out
}

// --- solving -----------------------------------------------------------------

func (b *bitvecBackend) solve(cons []sym.Expr) Result {
	dom := make(map[string]solver.Interval, len(b.domains))
	for name, d := range b.domains {
		dom[name] = d
	}
	// Variables mentioned by constraints but missing from the domain map get
	// the default input domain, like the interval solver.
	for _, c := range cons {
		for _, n := range sym.Vars(c) {
			if _, ok := dom[n]; !ok {
				dom[n] = solver.DefaultDomain
			}
		}
	}
	budget := b.budget
	sat, unknown, model := b.search(dom, cons, &budget)
	res := Result{Sat: sat, Unknown: unknown}
	if sat {
		res.Model = solver.NewModel(b.index, model)
	}
	return res
}

// search explores the current box: refine → classify → split, with exact
// concrete evaluation once a constraint's variables are all fixed.
func (b *bitvecBackend) search(dom map[string]solver.Interval, cons []sym.Expr, budget *int) (bool, bool, map[string]int64) {
	if b.interrupt != nil && b.interrupt() != nil {
		return false, true, nil
	}
	if !refine(dom, cons) {
		return false, false, nil
	}
	allTrue := true
	var branchCon sym.Expr
	for _, c := range cons {
		switch t := truthIv(c, dom); {
		case t.Hi == 0:
			return false, false, nil
		case t.Lo == 0:
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
	// constraint. sym.Vars is sorted, so ties go to the first name.
	varName := ""
	var best int64
	for _, n := range sym.Vars(branchCon) {
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
		// (division by zero): decide concretely and drop the constraint.
		if !concretelyTrue(branchCon, dom) {
			return false, false, nil
		}
		rest := make([]sym.Expr, 0, len(cons)-1)
		for _, c := range cons {
			if c != branchCon {
				rest = append(rest, c)
			}
		}
		return b.search(dom, rest, budget)
	}

	*budget--
	if *budget <= 0 {
		return false, true, nil
	}
	b.stats.SearchNodes++

	d := dom[varName]
	if d.Size() <= 8 {
		sawUnknown := false
		// Ascending enumeration with the loop bound checked AFTER the body:
		// v++ past d.Hi == MaxInt64 would wrap and spin forever.
		for v := d.Lo; ; v++ {
			child := maps.Clone(dom)
			child[varName] = solver.Singleton(v)
			sat, unknown, model := b.search(child, cons, budget)
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
		child := maps.Clone(dom)
		child[varName] = half
		sat, unknown, model := b.search(child, cons, budget)
		if sat {
			return true, false, model
		}
		if unknown {
			return false, true, nil
		}
	}
	return false, false, nil
}

// concretelyTrue evaluates a constraint whose variables are all fixed. An
// evaluation error (division by zero) makes it false: the concrete
// execution would trap rather than follow the path.
func concretelyTrue(c sym.Expr, dom map[string]solver.Interval) bool {
	v, err := sym.Eval(c, fixedDom(dom))
	return err == nil && v != 0
}

// fixedDom reads each variable's value off a domain map in which it is
// fixed; a name the map lacks reads as 0.
type fixedDom map[string]solver.Interval

func (d fixedDom) Value(name string) (int64, bool) { return d[name].Lo, true }

// refine applies backward (inverse) propagation of top-level comparisons to
// variable domains, to a small fixpoint. Sound: only assignments that
// cannot satisfy the comparison are removed. Returns false when a domain
// empties.
func refine(dom map[string]solver.Interval, cons []sym.Expr) bool {
	for pass := 0; pass < 8; pass++ {
		changed := false
		for _, c := range cons {
			ok, ch := refineCon(dom, c)
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
// either side, and for a bare boolean variable (v != 0).
func refineCon(dom map[string]solver.Interval, c sym.Expr) (ok, changed bool) {
	switch ex := c.(type) {
	case *sym.Var:
		return refineSide(dom, ex, sym.OpNE, solver.Singleton(0))
	case *sym.Bin:
		if !ex.Op.IsComparison() {
			return true, false
		}
		ok, ch1 := refineSide(dom, ex.L, ex.Op, valueIv(ex.R, dom))
		if !ok {
			return false, ch1
		}
		ok, ch2 := refineSide(dom, ex.R, ex.Op.Swap(), valueIv(ex.L, dom))
		return ok, ch1 || ch2
	}
	return true, false
}

// refineSide clamps the domain of side (when it is a variable) so that
// "side op other" stays satisfiable for some value of the other side.
func refineSide(dom map[string]solver.Interval, side sym.Expr, op sym.Op, other solver.Interval) (ok, changed bool) {
	v, isVar := side.(*sym.Var)
	if !isVar {
		return true, false
	}
	d, exists := dom[v.Name]
	if !exists {
		return true, false
	}
	nd := d
	switch op {
	case sym.OpEQ:
		nd = nd.Intersect(other)
	case sym.OpNE:
		if other.Fixed() {
			forbidden := other.Lo
			if nd.Fixed() && nd.Lo == forbidden {
				// The domain is exactly the forbidden singleton: empty it
				// (incrementing/decrementing would overflow at the int64
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
	case sym.OpLT:
		nd = nd.Intersect(solver.Interval{Lo: math.MinInt64, Hi: other.Hi - 1})
	case sym.OpLE:
		nd = nd.Intersect(solver.Interval{Lo: math.MinInt64, Hi: other.Hi})
	case sym.OpGT:
		nd = nd.Intersect(solver.Interval{Lo: other.Lo + 1, Hi: math.MaxInt64})
	case sym.OpGE:
		nd = nd.Intersect(solver.Interval{Lo: other.Lo, Hi: math.MaxInt64})
	}
	if nd == d {
		return true, false
	}
	dom[v.Name] = nd
	return !nd.Empty(), true
}

// --- abstract evaluation ------------------------------------------------------

// truthIv bounds e in boolean position by a 0/1 truth interval: [1,1] when
// e holds on the whole box, [0,0] when it fails on the whole box, [0,1]
// otherwise. A bare variable or arithmetic in boolean position is true when
// non-zero (boolean inputs have 0/1 domains).
func truthIv(e sym.Expr, dom map[string]solver.Interval) solver.Interval {
	switch ex := e.(type) {
	case *sym.BoolConst:
		return cmpTruth(ex.V, !ex.V)
	case *sym.Not:
		return notIv(truthIv(ex.X, dom))
	case *sym.Ite:
		// A boolean ite in boolean position: (c && t) || (!c && e).
		c := truthIv(ex.Cond, dom)
		return orIv(andIv(c, truthIv(ex.Then, dom)), andIv(notIv(c), truthIv(ex.Else, dom)))
	case *sym.Bin:
		switch {
		case ex.Op == sym.OpAnd:
			return andIv(truthIv(ex.L, dom), truthIv(ex.R, dom))
		case ex.Op == sym.OpOr:
			return orIv(truthIv(ex.L, dom), truthIv(ex.R, dom))
		case ex.Op.IsComparison():
			return cmpIv(ex.Op, valueIv(ex.L, dom), valueIv(ex.R, dom))
		}
	}
	return cmpIv(sym.OpNE, valueIv(e, dom), solver.Singleton(0))
}

// notIv, andIv and orIv combine 0/1 truth intervals: a conjunction is
// definitely true iff both sides are and definitely false iff either is; a
// disjunction dually.
func notIv(t solver.Interval) solver.Interval { return solver.Interval{Lo: 1 - t.Hi, Hi: 1 - t.Lo} }

func andIv(l, r solver.Interval) solver.Interval {
	return solver.Interval{Lo: l.Lo * r.Lo, Hi: min(l.Hi, r.Hi)}
}

func orIv(l, r solver.Interval) solver.Interval {
	return solver.Interval{Lo: max(l.Lo, r.Lo), Hi: max(l.Hi, r.Hi)}
}

// cmpIv bounds the truth of the signed comparison "l op r".
func cmpIv(op sym.Op, l, r solver.Interval) solver.Interval {
	switch op {
	case sym.OpEQ:
		return cmpTruth(l.Fixed() && r.Fixed() && l.Lo == r.Lo, l.Hi < r.Lo || r.Hi < l.Lo)
	case sym.OpNE:
		return cmpTruth(l.Hi < r.Lo || r.Hi < l.Lo, l.Fixed() && r.Fixed() && l.Lo == r.Lo)
	case sym.OpLT:
		return cmpTruth(l.Hi < r.Lo, l.Lo >= r.Hi)
	case sym.OpLE:
		return cmpTruth(l.Hi <= r.Lo, l.Lo > r.Hi)
	case sym.OpGT:
		return cmpTruth(l.Lo > r.Hi, l.Hi <= r.Lo)
	case sym.OpGE:
		return cmpTruth(l.Lo >= r.Hi, l.Hi < r.Lo)
	}
	return cmpTruth(false, false)
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

// valueIv bounds the signed value of e in value position over the box.
// Booleans are their 0/1 truth.
func valueIv(e sym.Expr, dom map[string]solver.Interval) solver.Interval {
	switch ex := e.(type) {
	case *sym.IntConst:
		return solver.Singleton(ex.V)
	case *sym.Var:
		if d, ok := dom[ex.Name]; ok {
			return d
		}
		return fullRange
	case *sym.Neg:
		x := valueIv(ex.X, dom)
		switch {
		case x.Fixed():
			return solver.Singleton(-x.Lo) // -MinInt64 wraps to MinInt64
		case x.Lo == math.MinInt64:
			return fullRange
		}
		return solver.Interval{Lo: -x.Hi, Hi: -x.Lo}
	case *sym.Ite:
		// Guard-aware: a decided guard selects one arm's bounds, an
		// undecided one yields the hull of both arms.
		c := truthIv(ex.Cond, dom)
		switch {
		case c.Lo == 1:
			return valueIv(ex.Then, dom)
		case c.Hi == 0:
			return valueIv(ex.Else, dom)
		}
		t, f := valueIv(ex.Then, dom), valueIv(ex.Else, dom)
		return solver.Interval{Lo: min(t.Lo, f.Lo), Hi: max(t.Hi, f.Hi)}
	case *sym.Bin:
		if ex.Op.IsArith() {
			return arithIv(ex.Op, valueIv(ex.L, dom), valueIv(ex.R, dom))
		}
	}
	return truthIv(e, dom)
}

// arithIv bounds "l op r". Fixed operands evaluate exactly, wrapping; any
// other result that may cross the int64 boundary widens to the full range
// (wraparound), never saturates — the semantic difference from the interval
// solver. Division or remainder by zero widens to full too; the leaf check
// rejects it exactly.
func arithIv(op sym.Op, l, r solver.Interval) solver.Interval {
	if l.Fixed() && r.Fixed() {
		if v, ok := op.Arith(l.Lo, r.Lo); ok {
			return solver.Singleton(v)
		}
		return fullRange
	}
	switch op {
	case sym.OpAdd:
		return wrapIv(addChecked(l.Lo, r.Lo), addChecked(l.Hi, r.Hi))
	case sym.OpSub:
		return wrapIv(subChecked(l.Lo, r.Hi), subChecked(l.Hi, r.Lo))
	case sym.OpMul:
		c1, c2 := mulChecked(l.Lo, r.Lo), mulChecked(l.Lo, r.Hi)
		c3, c4 := mulChecked(l.Hi, r.Lo), mulChecked(l.Hi, r.Hi)
		if !(c1.ok && c2.ok && c3.ok && c4.ok) {
			return fullRange
		}
		return solver.Interval{Lo: min(c1.v, c2.v, c3.v, c4.v), Hi: max(c1.v, c2.v, c3.v, c4.v)}
	case sym.OpDiv:
		return divIv(l, r)
	case sym.OpMod:
		return remIv(l, r)
	}
	return fullRange
}

// divIv bounds truncated signed division, splitting the divisor around zero
// (truncated division is corner-monotone per sign region). The
// MinInt64 / -1 wraparound corner widens to full.
func divIv(l, r solver.Interval) solver.Interval {
	if r.Lo == 0 && r.Hi == 0 {
		return fullRange
	}
	if l.Lo == math.MinInt64 && r.Contains(-1) {
		return fullRange
	}
	out := solver.Interval{Lo: math.MaxInt64, Hi: math.MinInt64} // empty accumulator
	widen := func(part solver.Interval) {
		if part.Empty() {
			return
		}
		c1, c2 := l.Lo/part.Lo, l.Lo/part.Hi
		c3, c4 := l.Hi/part.Lo, l.Hi/part.Hi
		out.Lo = min(out.Lo, c1, c2, c3, c4)
		out.Hi = max(out.Hi, c1, c2, c3, c4)
	}
	widen(r.Intersect(solver.Interval{Lo: 1, Hi: math.MaxInt64}))
	widen(r.Intersect(solver.Interval{Lo: math.MinInt64, Hi: -1}))
	if out.Empty() {
		return fullRange
	}
	return out
}

// remIv bounds the signed remainder: |result| < max|divisor|, sign follows
// the dividend.
func remIv(l, r solver.Interval) solver.Interval {
	m := max(abs64(r.Lo), abs64(r.Hi))
	if m == 0 {
		return fullRange
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
	return checked{v, v/b == a && !(a == -1 && b == math.MinInt64) && !(b == -1 && a == math.MinInt64)}
}

// wrapIv builds the interval [lo, hi] unless either bound overflowed int64
// — then the value may wrap, and the result widens to full.
func wrapIv(lo, hi checked) solver.Interval {
	if !lo.ok || !hi.ok {
		return fullRange
	}
	return solver.Interval{Lo: lo.v, Hi: hi.v}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
