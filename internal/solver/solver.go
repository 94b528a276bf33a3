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
	// Model binds every variable of the problem to a concrete value when
	// Sat, laid out over the solver's input index. The model is
	// deterministic: the search branches on the lowest candidate value first.
	Model *Model
}

// Solver checks satisfiability of conjunctions of symbolic constraints over
// finite integer domains. A Solver runs one Check or Tighten at a time: its
// scratch buffers are reused by the next call.
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
	// skeleton Tighten needs — variable indexing, input-index positions,
	// constraint views, the same-form unsat precheck. The skeleton depends
	// only on the expression (hash-consed, so pointer-keyed), not on the box
	// it is propagated against, and the interval backend propagates the same
	// branch constraints against many boxes as the exploration revisits
	// sibling subtrees.
	propTpl map[sym.Expr]*propTemplate
	// index holds the input domains' names in ascending order and each
	// name's position, built once at construction (NewIndexed); base is the
	// box of the input domains themselves. A Check over a box without names
	// outside the index takes its variable order from the index and its
	// constraints' resolved views from the constraints themselves, and every
	// model is laid out over the index.
	index *Index
	base  *Box

	// Scratch reused across calls: the compiled constraint list, the
	// indexed problem with its views and domains, the map adapter's box, and
	// Tighten's variable domains and residual atoms. None of them outlives
	// the call that fills it.
	conBuf   []*constraint
	prob     problem
	viewBuf  []conView
	domBuf   []Interval
	mapBuf   []Interval
	tightBuf []Interval
	residBuf []sym.Expr
}

// propTemplate is the reusable, read-only part of a Tighten problem.
type propTemplate struct {
	varNames []string
	varIdx   map[string]int
	// pos holds each variable's position in the solver's input index, -1
	// for a name outside it.
	pos   []int
	views []conView
	// atoms lists the views' expressions in order: the residual of every
	// frame whose box entails none of them, shared read-only.
	atoms        []sym.Expr
	trivialUnsat bool
}

// New returns a Solver with an empty input index: every Check indexes its
// own variables.
func New(opts Options) *Solver { return NewIndexed(opts, nil) }

// NewIndexed returns a Solver that indexes the names of the given input
// domains once, for all of its Checks, and whose Base box holds those
// domains. A Check whose box has exactly these names, and whose constraints
// mention no other, reuses the index; any other Check indexes its own
// variables as under New. The index never changes a result: both ways order
// the variables by name.
func NewIndexed(opts Options, inputs map[string]Interval) *Solver {
	if opts.NodeBudget == 0 {
		opts.NodeBudget = 1 << 16
	}
	index := NewIndex(inputs)
	base := &Box{iv: make([]Interval, len(index.names))}
	for i, n := range index.names {
		base.iv[i] = inputs[n]
	}
	return &Solver{
		opts:     opts,
		compiled: map[sym.Expr][]*constraint{},
		propTpl:  map[sym.Expr]*propTemplate{},
		index:    index,
		base:     base,
	}
}

// Stats returns accumulated counters.
func (s *Solver) Stats() Stats { return s.stats }

// ResetStats zeroes the counters.
func (s *Solver) ResetStats() { s.stats = Stats{} }

// Check decides satisfiability of the conjunction of constraints, with each
// variable restricted to the domain in domains. Variables that occur in the
// constraints but not in domains get DefaultDomain. A map over exactly the
// solver's inputs is checked as their box (CheckBox); any other map indexes
// the problem's own variables, sorted by name.
func (s *Solver) Check(constraints []sym.Expr, domains map[string]Interval) Result {
	if len(domains) == len(s.index.names) {
		iv := s.mapBuf[:0]
		for _, name := range s.index.names {
			d, ok := domains[name]
			if !ok {
				break
			}
			iv = append(iv, d)
		}
		s.mapBuf = iv
		if len(iv) == len(s.index.names) {
			return s.CheckBox(constraints, &Box{iv: iv})
		}
	}
	s.stats.Calls++
	return s.solve(newProblem(s.compileAll(constraints), domains))
}

// CheckBox decides satisfiability of the conjunction of constraints within
// box, a box over this solver's inputs (Base, or one Tighten derived from
// it). Variables the box lacks get DefaultDomain. The box is only read: the
// search tightens the problem's own copy of its intervals.
func (s *Solver) CheckBox(constraints []sym.Expr, box *Box) Result {
	s.stats.Calls++
	compiled := s.compileAll(constraints)
	p := s.indexedProblem(compiled, box)
	if p == nil {
		p = newProblem(compiled, s.domainsOf(box))
	}
	return s.solve(p)
}

// solve runs p under the solver's budget and interrupt and tallies the
// verdict.
func (s *Solver) solve(p *problem) Result {
	p.index, p.interrupt = s.index, s.opts.Interrupt
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

// compileAll compiles the constraints into the solver's scratch list.
func (s *Solver) compileAll(constraints []sym.Expr) []*constraint {
	out := s.conBuf[:0]
	for _, e := range constraints {
		out = append(out, s.compile(e)...)
	}
	s.conBuf = out
	return out
}

// indexedProblem builds a Check's problem over the input index in the
// solver's scratch: it copies the box's intervals and the constraints'
// cached views. It returns nil when the box holds names outside the index,
// or a constraint mentions one (a local read before it is assigned);
// newProblem then indexes the problem's own names, sorted by name.
func (s *Solver) indexedProblem(compiled []*constraint, box *Box) *problem {
	if box.outside != nil {
		return nil
	}
	views := s.viewBuf[:0]
	for _, c := range compiled {
		v := s.indexedView(c)
		if v == nil {
			return nil
		}
		views = append(views, *v)
	}
	s.viewBuf = views
	s.domBuf = append(s.domBuf[:0], box.iv...)
	s.prob = problem{varNames: s.index.names, varIdx: s.index.pos, domains: s.domBuf, views: views, dense: true}
	s.prob.intersectForms()
	return &s.prob
}

// indexedView resolves c against the input index on first use and keeps
// the result on c: both the index and the solver's compiled constraints
// live as long as the solver. It returns nil when c mentions a name
// outside the index.
func (s *Solver) indexedView(c *constraint) *conView {
	if !c.resolved {
		c.resolved = true
		if v, ok := viewOf(c, s.index.pos); ok {
			c.view = &v
		}
	}
	return c.view
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
	tpl := new(propTemplate)
	if compiled := s.compileAll(constraints); len(compiled) > 0 {
		p := newProblem(compiled, nil)
		*tpl = propTemplate{
			varNames:     p.varNames,
			varIdx:       p.varIdx,
			pos:          make([]int, len(p.varNames)),
			views:        p.views,
			atoms:        make([]sym.Expr, len(p.views)),
			trivialUnsat: p.trivialUnsat,
		}
		for i, name := range p.varNames {
			tpl.pos[i] = -1
			if idx, ok := s.index.pos[name]; ok {
				tpl.pos[i] = idx
			}
		}
		for i := range p.views {
			tpl.atoms[i] = p.views[i].c.expr
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
	// index is the input index of the solver running the problem, which its
	// models are laid out over; dense reports that the problem's variables
	// are exactly that index's inputs, in order.
	index *Index
	dense bool
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
