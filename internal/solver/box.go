package solver

import "dise/internal/sym"

// Box is a propagation snapshot: the domains of a solver's inputs, tightened
// to bounds consistency under some conjunction of constraints. It holds one
// interval per input, in the order of the solver's input index, and a map of
// the names outside the index that propagation tightened (a local read
// before it is assigned); that map is nil unless such a name occurred.
//
// A box is immutable once built, so boxes are shared freely: a frame whose
// constraints tighten nothing shares its parent's box, and prefix caches hand
// one box to many engines and goroutines. A box belongs to the input index of
// the solver that built it; solvers built over the same input domains have
// the same index and may exchange boxes.
type Box struct {
	iv      []Interval
	outside map[string]Interval
}

// Base returns the box of the solver's input domains, the root every
// Tighten chain starts from.
func (s *Solver) Base() *Box { return s.base }

// Len returns the number of names the box holds: every input plus the names
// outside the index. A nil box holds none.
func (b *Box) Len() int {
	if b == nil {
		return 0
	}
	return len(b.iv) + len(b.outside)
}

// get returns the domain of the variable at input-index position pos, or,
// for pos < 0, of the name outside the index; ok is false when the box lacks
// that name.
func (b *Box) get(pos int, name string) (d Interval, ok bool) {
	if pos >= 0 {
		return b.iv[pos], true
	}
	d, ok = b.outside[name]
	return d, ok
}

// domainsOf returns box as a map from name to domain.
func (s *Solver) domainsOf(box *Box) map[string]Interval {
	out := make(map[string]Interval, box.Len())
	for i, name := range s.index.names {
		out[name] = box.iv[i]
	}
	for name, d := range box.outside {
		out[name] = d
	}
	return out
}

// Tighten tightens parent to bounds consistency under the constraints,
// without searching. Only the constraints' own variables are propagated,
// starting from their domains in parent (DefaultDomain for a name parent
// lacks), so a frame's one new conjunct costs its variables, not the whole
// box. ok is false when propagation proves the conjunction unsatisfiable
// within parent (some domain became empty, or two constraints over the same
// linear form have an empty intersection).
//
// residual lists the atoms (after conjunction flattening) that the tightened
// box does NOT entail: an atom missing from it is satisfied by every
// assignment inside the box, so a later search within the box may drop it.
// Deep assertion stacks reduce to short residual lists.
//
// When the constraints change no variable's domain, box is parent itself.
// Otherwise box is a new box: parent's intervals with the propagated
// variables' overwritten, plus every name outside the index the constraints
// mention. Either way it is a sound over-approximation of the solution set:
// every assignment satisfying the constraints within parent lies in it.
// parent is only read.
//
// The no-change test reads a name parent lacks as Interval{0,0}, so a
// tightening of such a name to exactly [0,0] counts as no change while its
// atom is already dropped from the residual (README "Known limitations").
func (s *Solver) Tighten(parent *Box, constraints []sym.Expr) (box *Box, residual []sym.Expr, ok bool) {
	tpl := s.propTemplateFor(constraints)
	if tpl.trivialUnsat {
		return nil, nil, false
	}
	if len(tpl.views) == 0 {
		return parent, nil, true
	}
	dom := s.tightBuf[:0]
	for i, name := range tpl.varNames {
		d, found := parent.get(tpl.pos[i], name)
		if !found {
			d = DefaultDomain
		}
		dom = append(dom, d)
	}
	s.tightBuf = dom
	p := problem{varNames: tpl.varNames, varIdx: tpl.varIdx, views: tpl.views, interrupt: s.opts.Interrupt}
	if !p.propagate(dom, &s.stats) {
		return nil, nil, false
	}
	open := s.residBuf[:0]
	for i := range p.views {
		if p.truthOf(&p.views[i], dom) != truthTrue {
			open = append(open, p.views[i].c.expr)
		}
	}
	s.residBuf = open
	switch len(open) {
	case 0:
	case len(tpl.atoms):
		residual = tpl.atoms
	default:
		residual = append([]sym.Expr(nil), open...)
	}
	for i, name := range tpl.varNames {
		if d, _ := parent.get(tpl.pos[i], name); d != dom[i] {
			return parent.with(tpl, dom), residual, true
		}
	}
	return parent, residual, true
}

// with returns a copy of b with the template's variables set to dom.
func (b *Box) with(tpl *propTemplate, dom []Interval) *Box {
	out := &Box{iv: append([]Interval(nil), b.iv...), outside: b.outside}
	copied := false
	for i, pos := range tpl.pos {
		if pos >= 0 {
			out.iv[pos] = dom[i]
			continue
		}
		if !copied {
			out.outside = make(map[string]Interval, len(b.outside)+1)
			for name, d := range b.outside {
				out.outside[name] = d
			}
			copied = true
		}
		out.outside[tpl.varNames[i]] = dom[i]
	}
	return out
}
