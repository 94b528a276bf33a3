package constraint

import (
	"fmt"
	"sort"

	"dise/internal/solver"
	"dise/internal/sym"
)

// ivFrame is one assertion frame of the interval backend. Besides the
// asserted constraints it carries the two pieces of reusable solver state:
//
//   - box: the propagation snapshot — the input domains tightened to bounds
//     consistency under every constraint up to and including this frame.
//     A child Check propagates only its own new conjunct against the
//     parent's box instead of re-propagating the whole path condition.
//   - res: the memoized verdict for the stack prefix ending at this frame,
//     whose model (when Sat) is the witness that lets most child Checks
//     succeed without any solving at all.
//
// Both are lazily (re)computed and may be adopted from the shared
// PrefixCache, which stores them under the frame's chained key.
type ivFrame struct {
	exprs []sym.Expr
	// expr0 is the inline backing array for exprs: the engine asserts
	// exactly one constraint per frame, so the common case needs no second
	// allocation beyond the frame itself.
	expr0 [1]sym.Expr
	key   prefixKey
	box   map[string]solver.Interval // nil until computed; read-only once set
	// residual holds the frame's atoms that its box does not entail (valid
	// once box is set). Boxes shrink monotonically down the stack, so an
	// atom entailed at its own frame stays entailed at every deeper frame —
	// a full solve only ever needs the concatenated residuals.
	residual []sym.Expr
	res      *Result // nil until known; read-only once set
}

// intervalBackend adapts the finite-domain interval solver of
// internal/solver to the incremental Backend interface. With reuse enabled
// it implements the full prefix-reuse machinery; with reuse disabled every
// Check re-solves its complete assertion stack from the raw input domains,
// which is exactly what the execution engine did before this subsystem
// existed (the A/B baseline).
type intervalBackend struct {
	inner     *solver.Solver
	domains   map[string]solver.Interval
	frames    []*ivFrame
	cache     *PrefixCache
	reuse     bool
	stats     Stats
	lastModel map[string]int64
}

func newIntervalBackend(opts Options, reuse bool) *intervalBackend {
	domains := make(map[string]solver.Interval, len(opts.Domains))
	for k, v := range opts.Domains {
		domains[k] = v
	}
	cache := opts.Cache
	if cache == nil && reuse {
		// A private cache still pays off: within one engine it preserves
		// frame state across the pop/re-push cycles of the branch checks.
		cache = NewPrefixCache(0)
	}
	name := BackendInterval
	if !reuse {
		name = BackendIntervalNoReuse
	}
	b := &intervalBackend{
		inner:   solver.NewIndexed(solver.Options{NodeBudget: opts.NodeBudget, Interrupt: opts.Interrupt}, domains),
		domains: domains,
		cache:   cache,
		reuse:   reuse,
		stats:   Stats{Backend: name},
	}
	b.frames = []*ivFrame{{key: domainsKey(domains)}}
	return b
}

// domainsKey seeds the prefix-key chain with a digest of the input domains,
// so engines with different domains never share cache entries.
func domainsKey(domains map[string]solver.Interval) prefixKey {
	names := make([]string, 0, len(domains))
	for n := range domains {
		names = append(names, n)
	}
	sort.Strings(names)
	key := prefixKey{}
	for _, n := range names {
		d := domains[n]
		key = key.extend(fmt.Sprintf("%s∈[%d,%d]", n, d.Lo, d.Hi))
	}
	return key
}

func (b *intervalBackend) Push() {
	top := b.frames[len(b.frames)-1]
	f := &ivFrame{key: top.key}
	f.exprs = f.expr0[:0]
	b.frames = append(b.frames, f)
	b.stats.PushedFrames++
}

func (b *intervalBackend) Pop() {
	if len(b.frames) == 1 {
		panic("constraint: Pop on the base frame (push/pop imbalance)")
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.stats.PoppedFrames++
}

func (b *intervalBackend) Assert(c sym.Expr) {
	top := b.frames[len(b.frames)-1]
	top.exprs = append(top.exprs, c)
	// Key on the structural fingerprints — field reads for hash-consed
	// expressions — instead of rendering the constraint to a string and
	// hashing the bytes on every assert.
	top.key = top.key.extendFP(sym.Fingerprints(c))
	top.box, top.residual, top.res = nil, nil, nil
	b.stats.Asserts++
}

func (b *intervalBackend) Model() map[string]int64 { return b.lastModel }

func (b *intervalBackend) Caps() Caps {
	return Caps{Name: b.stats.Backend, PrefixReuse: b.reuse}
}

func (b *intervalBackend) Stats() Stats {
	st := b.stats
	inner := b.inner.Stats()
	st.SearchNodes = inner.SearchNodes
	st.Propagations = inner.Propagations
	return st
}

func (b *intervalBackend) ResetStats() {
	b.stats = Stats{Backend: b.stats.Backend}
	b.inner.ResetStats()
}

func (b *intervalBackend) Check() Result {
	b.stats.Checks++
	res := b.check()
	b.stats.Tally(res)
	b.lastModel = nil
	if res.Sat {
		b.lastModel = res.Model
	}
	return res
}

func (b *intervalBackend) check() Result {
	top := b.frames[len(b.frames)-1]
	if !b.reuse {
		// Baseline: compile-and-solve the whole stack from the raw domains,
		// ignoring every snapshot. (Expression compilation inside the inner
		// solver is still cached — it always was.)
		b.stats.FullSolves++
		r := b.inner.Check(b.stackExprs(), b.domains)
		return Result{Sat: r.Sat, Unknown: r.Unknown, Model: r.Model}
	}
	if top.res != nil {
		b.stats.FrameMemoHits++
		return *top.res
	}
	// Whole-stack verdict from the shared cache: a sibling engine (or this
	// one, before a pop/re-push cycle) may have decided this exact prefix.
	if ent, ok := b.cache.get(top.key); ok && ent.res != nil {
		b.stats.CacheHits++
		top.res, top.box, top.residual = ent.res, ent.box, ent.residual
		return *ent.res
	}
	b.stats.CacheMisses++

	parentBox, parentModel, conflict := b.ensureAncestors()
	if conflict {
		res := Result{}
		top.res = &res
		return res
	}
	// Witness fast path: the parent prefix's model already satisfies the new
	// conjuncts, so the conjunction is Sat with no solving. This is the
	// dominant case down a feasible path (exactly one branch outcome agrees
	// with any given model).
	if parentModel != nil && b.modelSatisfies(parentModel, top.exprs) {
		res := Result{Sat: true, Model: parentModel}
		if box, residual, ok := b.propagateFrame(top, parentBox); ok {
			top.box, top.residual = box, residual
		}
		top.res = &res
		b.stats.ModelReuses++
		b.cache.put(top.key, prefixEntry{res: &res, box: top.box, residual: top.residual})
		return res
	}
	// Incremental refutation: propagate only the new conjuncts against the
	// parent's snapshot. An empty domain refutes the whole conjunction
	// without touching the prefix constraints.
	box, residual, ok := b.propagateFrame(top, parentBox)
	if !ok {
		b.stats.BoxConflicts++
		res := Result{}
		top.res = &res
		b.cache.put(top.key, prefixEntry{res: &res})
		return res
	}
	top.box, top.residual = box, residual
	// Full search, starting from the tightened box and solving only the
	// stack's residual atoms — constraints the chained propagation proved to
	// hold everywhere in the box are dropped (sound: the box
	// over-approximates the prefix's solution set, so no solution of the
	// conjunction is outside it, and inside it the dropped atoms are
	// vacuous).
	b.stats.FullSolves++
	r := b.inner.Check(b.stackResidual(), box)
	res := Result{Sat: r.Sat, Unknown: r.Unknown, Model: r.Model}
	if !res.Unknown {
		// Unknown verdicts are budget- and timing-dependent; never memoize
		// or share them.
		top.res = &res
		b.cache.put(top.key, prefixEntry{res: &res, box: box, residual: residual})
	} else {
		// The snapshot itself is still valid and reusable.
		b.cache.put(top.key, prefixEntry{box: box, residual: residual})
	}
	return res
}

// ensureAncestors makes sure every frame below the top has its propagation
// snapshot, computing missing ones top-down from the base (consulting the
// shared cache first). It returns the parent frame's box, the parent
// prefix's satisfying model when one is known, and whether an ancestor
// frame was refuted outright.
func (b *intervalBackend) ensureAncestors() (map[string]solver.Interval, map[string]int64, bool) {
	parentBox := b.domains
	for i, f := range b.frames[:len(b.frames)-1] {
		if f.box == nil {
			if ent, ok := b.cache.get(f.key); ok && ent.box != nil {
				f.box, f.residual, f.res = ent.box, ent.residual, ent.res
			} else if len(f.exprs) == 0 && i == 0 {
				f.box = b.domains
			} else {
				box, residual, ok := b.propagateFrame(f, parentBox)
				if !ok {
					res := Result{}
					f.res = &res
					return nil, nil, true
				}
				f.box, f.residual = box, residual
				b.cache.put(f.key, prefixEntry{box: box, residual: residual})
			}
		}
		if f.res != nil && !f.res.Sat && !f.res.Unknown {
			return nil, nil, true
		}
		parentBox = f.box
	}
	var parentModel map[string]int64
	if len(b.frames) > 1 {
		if parent := b.frames[len(b.frames)-2]; parent.res != nil && parent.res.Sat {
			parentModel = parent.res.Model
		}
	}
	return parentBox, parentModel, false
}

// propagateFrame tightens the parent box under the frame's own constraints
// (bounds-consistency fixpoint over just the constraints' variables, no
// search) and computes the frame's residual atoms. A false return is a
// sound refutation of the whole stack. When the constraints tighten
// nothing, the parent box is shared, not copied — long runs of
// already-satisfied frames cost no memory.
func (b *intervalBackend) propagateFrame(f *ivFrame, parentBox map[string]solver.Interval) (map[string]solver.Interval, []sym.Expr, bool) {
	delta, residual, ok := b.inner.PropagateDelta(f.exprs, parentBox)
	if !ok {
		return nil, nil, false
	}
	b.stats.BoxSnapshots++
	changed := false
	for name, d := range delta {
		if parentBox[name] != d {
			changed = true
			break
		}
	}
	if !changed {
		return parentBox, residual, true
	}
	box := make(map[string]solver.Interval, len(parentBox)+len(delta))
	for name, d := range parentBox {
		box[name] = d
	}
	for name, d := range delta {
		box[name] = d
	}
	return box, residual, true
}

// modelSatisfies reports whether the model satisfies every expression (any
// evaluation error — e.g. a variable the prefix never mentioned — means no).
func (b *intervalBackend) modelSatisfies(model map[string]int64, exprs []sym.Expr) bool {
	for _, e := range exprs {
		v, err := solver.EvalInt01(e, model)
		if err != nil || v == 0 {
			return false
		}
	}
	return true
}

// stackExprs concatenates the assertions of every frame, base first.
func (b *intervalBackend) stackExprs() []sym.Expr {
	var out []sym.Expr
	for _, f := range b.frames {
		out = append(out, f.exprs...)
	}
	return out
}

// stackResidual concatenates the residual atoms of every frame — the
// constraints a search within the top frame's box still has to enforce.
func (b *intervalBackend) stackResidual() []sym.Expr {
	var out []sym.Expr
	for _, f := range b.frames {
		out = append(out, f.residual...)
	}
	return out
}
