package solver

import (
	"sort"
	"strconv"

	"dise/internal/sym"
)

// DefaultDomain is the domain assigned to integer symbolic inputs unless the
// caller overrides it. It is non-negative, mirroring the Choco configuration
// under SPF that the paper's artifacts ran with: over this domain the
// motivating example's PedalCmd == 2 arms are infeasible, which is what
// yields the paper's 21 feasible paths (a full signed range yields 24 — see
// the domain ablation in the repository README and bench suite).
var DefaultDomain = Interval{Lo: 0, Hi: 1_000_000}

// BoolDomain is the 0/1 domain used for boolean symbolic inputs.
var BoolDomain = Interval{Lo: 0, Hi: 1}

// Options configures a Solver.
type Options struct {
	// NodeBudget caps search nodes per Check call; exceeding it yields an
	// Unknown result (treated as unsatisfiable by callers, as SPF does).
	// Zero means the default of 1<<16.
	NodeBudget int
	// Interrupt, when non-nil, is polled at every search node. A non-nil
	// return aborts the Check with an Unknown result, letting callers stop a
	// long-running solve promptly (e.g. on context cancellation).
	Interrupt func() error
}

// Stats counts solver work across Check calls.
type Stats struct {
	Calls        int // Check invocations
	Sat          int // satisfiable results
	Unsat        int // unsatisfiable results
	Unknown      int // budget exhausted
	SearchNodes  int // total branching nodes explored
	Propagations int // domain-tightening passes
}

// Result is the outcome of a Check call.
type Result struct {
	Sat     bool
	Unknown bool // budget exhausted before a verdict
	// Model maps every variable to a concrete value when Sat. The model is
	// deterministic: the search branches on the lowest candidate value first.
	Model map[string]int64
}

// Solver checks satisfiability of conjunctions of symbolic constraints over
// finite integer domains.
type Solver struct {
	opts  Options
	stats Stats
	// compiled caches the normalized form of constraint expressions, keyed
	// by node pointer. Symbolic expressions are immutable and hash-consed
	// (internal/sym), so a constraint re-built anywhere — a sibling state, a
	// later version of the program, a re-rendered branch condition — is the
	// same pointer and hits the same cache line; compilation amortizes
	// across the thousands of Check calls a symbolic execution run makes.
	compiled map[sym.Expr][]*constraint
	// propTpl caches, per constraint expression, the name-resolved problem
	// skeleton PropagateDelta needs — variable indexing, constraint views,
	// the same-form unsat precheck. The skeleton depends only on the
	// expression (hash-consed, so pointer-keyed), not on the box it is
	// propagated against, and the interval backend propagates the same
	// branch constraints against many boxes as the exploration revisits
	// sibling subtrees.
	propTpl map[sym.Expr]*propTemplate
	// inputs holds the input domains' names in ascending order and inputIdx
	// each name's position, built once at construction (NewIndexed). A
	// Check over exactly these inputs takes its variable order from them
	// instead of re-hashing and re-sorting every name into fresh maps, and
	// its constraints' resolved views from the constraints themselves.
	inputs   []string
	inputIdx map[string]int
}

// propTemplate is the reusable, read-only part of a PropagateDelta problem.
type propTemplate struct {
	varNames     []string
	varIdx       map[string]int
	views        []conView
	trivialUnsat bool
}

// New returns a Solver with an empty input index: every Check indexes its
// own variables.
func New(opts Options) *Solver { return NewIndexed(opts, nil) }

// NewIndexed returns a Solver that indexes the names of the given input
// domains once, for all of its Checks. A Check whose box has exactly these
// names, and whose constraints mention no other, reuses the index; any
// other Check indexes its own variables as under New. The index never
// changes a result: both ways order the variables by name.
func NewIndexed(opts Options, inputs map[string]Interval) *Solver {
	if opts.NodeBudget == 0 {
		opts.NodeBudget = 1 << 16
	}
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	return &Solver{
		opts:     opts,
		compiled: map[sym.Expr][]*constraint{},
		propTpl:  map[sym.Expr]*propTemplate{},
		inputs:   names,
		inputIdx: idx,
	}
}

// Stats returns accumulated counters.
func (s *Solver) Stats() Stats { return s.stats }

// ResetStats zeroes the counters.
func (s *Solver) ResetStats() { s.stats = Stats{} }

// Check decides satisfiability of the conjunction of constraints, with each
// variable restricted to the domain in domains. Variables that occur in the
// constraints but not in domains get DefaultDomain.
func (s *Solver) Check(constraints []sym.Expr, domains map[string]Interval) Result {
	s.stats.Calls++
	compiled := make([]*constraint, 0, len(constraints))
	for _, e := range constraints {
		compiled = append(compiled, s.compile(e)...)
	}
	p := s.indexedProblem(compiled, domains)
	if p == nil {
		p = newProblem(compiled, domains)
	}
	p.interrupt = s.opts.Interrupt
	budget := s.opts.NodeBudget
	res := p.solve(&s.stats, &budget)
	switch {
	case res.Sat:
		s.stats.Sat++
	case res.Unknown:
		s.stats.Unknown++
	default:
		s.stats.Unsat++
	}
	return res
}

// indexedProblem builds a Check's problem over the input index: it copies
// the box's intervals into index order and the constraints' cached views.
// It returns nil when the box's names are not exactly the index's, or a
// constraint mentions a name outside it (a local read before it is
// assigned, or a box that propagation widened with such a name); newProblem
// then indexes the problem's own names, sorted by name.
func (s *Solver) indexedProblem(compiled []*constraint, box map[string]Interval) *problem {
	names := s.inputs
	if len(box) != len(names) {
		return nil
	}
	views := make([]conView, len(compiled))
	for i, c := range compiled {
		v := s.indexedView(c)
		if v == nil {
			return nil
		}
		views[i] = *v
	}
	domains := make([]Interval, len(names))
	for i, name := range names {
		d, ok := box[name]
		if !ok {
			return nil
		}
		domains[i] = d
	}
	p := &problem{varNames: names, varIdx: s.inputIdx, domains: domains, views: views}
	p.intersectForms()
	return p
}

// indexedView resolves c against the input index on first use and keeps
// the result on c: both the index and the solver's compiled constraints
// live as long as the solver. It returns nil when c mentions a name
// outside the index.
func (s *Solver) indexedView(c *constraint) *conView {
	if !c.resolved {
		c.resolved = true
		if v, ok := viewOf(c, s.inputIdx); ok {
			c.view = &v
		}
	}
	return c.view
}

// PropagateDelta tightens the domains of the variables mentioned by the
// constraints to bounds consistency, without searching. Domains are read
// from base (falling back to DefaultDomain); the returned delta holds ONLY
// the mentioned variables' tightened domains, so callers propagating one
// new conjunct against a large box pay for the conjunct's variables, not
// the whole box. ok is false when propagation proves the conjunction
// unsatisfiable over base (some domain became empty, or two constraints
// over the same linear form have an empty intersection).
//
// residual lists the atoms (after conjunction flattening) that the
// tightened box does NOT entail: an atom missing from it is satisfied by
// every assignment inside the box, so a later search within the box may
// drop it. Deep assertion stacks reduce to short residual lists — the
// second half of what makes per-frame snapshots pay off in
// internal/constraint.
//
// base overlaid with the delta is a sound over-approximation of the
// solution set: every assignment satisfying the constraints within base
// lies in it.
func (s *Solver) PropagateDelta(constraints []sym.Expr, base map[string]Interval) (delta map[string]Interval, residual []sym.Expr, ok bool) {
	tpl := s.propTemplateFor(constraints)
	if tpl.trivialUnsat {
		return nil, nil, false
	}
	if len(tpl.views) == 0 {
		return nil, nil, true
	}
	box := make([]Interval, len(tpl.varNames))
	for i, name := range tpl.varNames {
		if d, ok := base[name]; ok {
			box[i] = d
		} else {
			box[i] = DefaultDomain
		}
	}
	p := problem{varNames: tpl.varNames, varIdx: tpl.varIdx, views: tpl.views, interrupt: s.opts.Interrupt}
	if !p.propagate(box, &s.stats) {
		return nil, nil, false
	}
	for i := range p.views {
		if p.truthOf(&p.views[i], box) != truthTrue {
			residual = append(residual, p.views[i].c.expr)
		}
	}
	delta = make(map[string]Interval, len(tpl.varNames))
	for i, name := range tpl.varNames {
		delta[name] = box[i]
	}
	return delta, residual, true
}

// propTemplateFor resolves the problem skeleton for a constraint list. The
// single-expression case — the interval backend propagates one frame's one
// conjunct — is served from the pointer-keyed template cache; multi-expr
// lists (rare: concatenated residuals) are built ad hoc.
func (s *Solver) propTemplateFor(constraints []sym.Expr) *propTemplate {
	if len(constraints) == 1 {
		if tpl, ok := s.propTpl[constraints[0]]; ok {
			return tpl
		}
	}
	var compiled []*constraint
	for _, e := range constraints {
		compiled = append(compiled, s.compile(e)...)
	}
	var tpl *propTemplate
	if len(compiled) == 0 {
		tpl = &propTemplate{}
	} else {
		p := newProblem(compiled, nil)
		tpl = &propTemplate{
			varNames:     p.varNames,
			varIdx:       p.varIdx,
			views:        p.views,
			trivialUnsat: p.trivialUnsat,
		}
	}
	if len(constraints) == 1 {
		s.propTpl[constraints[0]] = tpl
	}
	return tpl
}

// conKind classifies compiled constraints.
type conKind int

const (
	conLinear conKind = iota // lin ⋈ 0 with ⋈ ∈ {<=, ==, !=}
	conOpaque                // arbitrary boolean expression
)

// constraint is a compiled, name-based constraint (cached on the Solver and
// shared across problems).
type constraint struct {
	kind conKind
	expr sym.Expr   // original expression (used for opaque evaluation)
	lin  sym.Linear // linear form, conLinear only
	op   sym.Op     // OpLE, OpEQ or OpNE, conLinear only
	vars []string   // sorted variable names mentioned
	// view is the constraint resolved against its solver's input index,
	// nil when it mentions a name outside the index; valid once resolved
	// is set (Solver.indexedView).
	view     *conView
	resolved bool
}

// compile normalizes e into linear/opaque constraints, flattening top-level
// conjunctions, with caching.
func (s *Solver) compile(e sym.Expr) []*constraint {
	if cached, ok := s.compiled[e]; ok {
		return cached
	}
	var out []*constraint
	switch ex := e.(type) {
	case *sym.BoolConst:
		if !ex.V {
			// Trivially false: encode as 1 <= 0.
			lin := sym.NewLinear()
			lin.Const = 1
			out = append(out, finishLinear(e, lin, sym.OpLE))
		}
		// Trivially true compiles to nothing.
	case *sym.Var:
		// A bare boolean variable used as a constraint: v == 1.
		lin := sym.NewLinear()
		lin.Coeffs[ex.Name] = 1
		lin.Const = -1
		out = append(out, finishLinear(e, lin, sym.OpEQ))
	case *sym.Not:
		if v, ok := ex.X.(*sym.Var); ok {
			// !v: v == 0.
			lin := sym.NewLinear()
			lin.Coeffs[v.Name] = 1
			out = append(out, finishLinear(e, lin, sym.OpEQ))
		} else {
			out = append(out, opaque(e))
		}
	case *sym.Bin:
		switch {
		case ex.Op == sym.OpAnd:
			out = append(out, s.compile(ex.L)...)
			out = append(out, s.compile(ex.R)...)
		case ex.Op.IsComparison():
			if c, ok := linearize(ex); ok {
				out = append(out, c)
			} else {
				out = append(out, opaque(e))
			}
		default:
			out = append(out, opaque(e))
		}
	default:
		out = append(out, opaque(e))
	}
	s.compiled[e] = out
	return out
}

// linearize turns "L ⋈ R" with linear sides into a normalized constraint.
func linearize(e *sym.Bin) (*constraint, bool) {
	ll, ok := sym.LinearOf(boolToInt(e.L))
	if !ok {
		return nil, false
	}
	rl, ok := sym.LinearOf(boolToInt(e.R))
	if !ok {
		return nil, false
	}
	lin := sym.AddLinear(ll, sym.ScaleLinear(rl, -1)) // L - R
	switch e.Op {
	case sym.OpLT: // L - R < 0  ≡  L - R + 1 <= 0
		lin.Const++
		return finishLinear(e, lin, sym.OpLE), true
	case sym.OpLE:
		return finishLinear(e, lin, sym.OpLE), true
	case sym.OpGT: // L - R > 0  ≡  R - L + 1 <= 0
		lin = sym.ScaleLinear(lin, -1)
		lin.Const++
		return finishLinear(e, lin, sym.OpLE), true
	case sym.OpGE:
		lin = sym.ScaleLinear(lin, -1)
		return finishLinear(e, lin, sym.OpLE), true
	case sym.OpEQ:
		return finishLinear(e, lin, sym.OpEQ), true
	case sym.OpNE:
		return finishLinear(e, lin, sym.OpNE), true
	}
	return nil, false
}

// boolToInt rewrites boolean constants appearing as comparison operands
// (e.g. "b == true") into 0/1 integers so that boolean variables integrate
// with the linear machinery.
func boolToInt(e sym.Expr) sym.Expr {
	if b, ok := e.(*sym.BoolConst); ok {
		if b.V {
			return sym.One
		}
		return sym.Zero
	}
	return e
}

func finishLinear(e sym.Expr, lin sym.Linear, op sym.Op) *constraint {
	return &constraint{kind: conLinear, expr: e, lin: lin, op: op, vars: lin.Vars()}
}

func opaque(e sym.Expr) *constraint {
	return &constraint{kind: conOpaque, expr: e, vars: sym.Vars(e)}
}

// term is one resolved linear term: coeff * var(idx).
type term struct {
	idx   int
	coeff int64
}

// conView is a constraint resolved against a problem's variable indexing.
type conView struct {
	c     *constraint
	terms []term // conLinear only
	konst int64  // conLinear only
	vars  []int  // variable indices, all kinds
	// form and sign key the same-form analysis (intersectForms), for a
	// linear constraint with terms: the term vector scaled by sign so that
	// its first coefficient is positive, so a form and its negation share
	// a key.
	form string
	sign int64
}

// problem is one Check instance.
type problem struct {
	varNames []string
	varIdx   map[string]int
	domains  []Interval
	views    []conView
	// trivialUnsat is set when same-form analysis found two linear
	// constraints over the same term vector with incompatible ranges
	// (e.g. X - Y >= 1 together with X - Y == 0). Bounds propagation alone
	// converges one unit per pass on such pairs — a pathology over wide
	// domains — so they are refuted during setup instead.
	trivialUnsat bool
	// interrupt aborts the search when it returns non-nil (Options.Interrupt).
	interrupt func() error
}

func newProblem(constraints []*constraint, domains map[string]Interval) *problem {
	p := &problem{varIdx: map[string]int{}}
	// Collect variables across all constraints plus every variable the
	// caller declared a domain for (so models always cover all inputs,
	// including unconstrained ones), deterministically.
	nameSet := map[string]bool{}
	for _, c := range constraints {
		for _, n := range c.vars {
			nameSet[n] = true
		}
	}
	for n := range domains {
		nameSet[n] = true
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p.varIdx[n] = len(p.varNames)
		p.varNames = append(p.varNames, n)
		d, ok := domains[n]
		if !ok {
			d = DefaultDomain
		}
		p.domains = append(p.domains, d)
	}
	for _, c := range constraints {
		v, _ := viewOf(c, p.varIdx)
		p.views = append(p.views, v)
	}
	p.intersectForms()
	return p
}

// viewOf resolves c against a name-sorted variable indexing; ok is false
// when c mentions a name the indexing lacks. Because both c.vars and the
// indexing are sorted by name, the terms come out in index order.
func viewOf(c *constraint, varIdx map[string]int) (v conView, ok bool) {
	v = conView{c: c, konst: c.lin.Const, vars: make([]int, len(c.vars))}
	for i, name := range c.vars {
		idx, found := varIdx[name]
		if !found {
			return conView{}, false
		}
		v.vars[i] = idx
	}
	if c.kind == conLinear && len(c.vars) > 0 {
		v.terms = make([]term, len(c.vars))
		for i, name := range c.vars {
			v.terms[i] = term{idx: v.vars[i], coeff: c.lin.Coeffs[name]}
		}
		v.sign = 1
		if v.terms[0].coeff < 0 {
			v.sign = -1
		}
		key := make([]byte, 0, len(v.terms)*8)
		for _, t := range v.terms {
			key = strconv.AppendInt(key, int64(t.idx), 10)
			key = append(key, ':')
			key = strconv.AppendInt(key, v.sign*t.coeff, 10)
			key = append(key, ';')
		}
		v.form = string(key)
	}
	return v, true
}

// intersectForms groups linear constraints by their (sign-normalized) term
// vector and intersects the ranges they impose on the shared form. An empty
// intersection proves unsatisfiability without any propagation.
func (p *problem) intersectForms() {
	type rng struct{ lo, hi int64 }
	forms := map[string]rng{}
	for i := range p.views {
		v := &p.views[i]
		if v.c.kind != conLinear || len(v.terms) == 0 {
			continue
		}
		r, ok := forms[v.form]
		if !ok {
			r = rng{lo: -satBound, hi: satBound}
		}
		// Constraint: Σ terms + konst ⋈ 0, i.e. sign*Σ' + konst ⋈ 0 where
		// Σ' is the normalized form.
		switch v.c.op {
		case sym.OpLE: // sign*Σ' <= -konst
			if v.sign > 0 {
				r.hi = min2(r.hi, -v.konst)
			} else {
				r.lo = max2(r.lo, v.konst)
			}
		case sym.OpEQ: // sign*Σ' == -konst
			val := -v.konst * v.sign
			r.lo = max2(r.lo, val)
			r.hi = min2(r.hi, val)
		}
		if r.lo > r.hi {
			p.trivialUnsat = true
			return
		}
		forms[v.form] = r
	}
}
