package solver

import (
	"math/rand"
	"reflect"
	"testing"

	"dise/internal/sym"
)

// refTighten is the map-based propagation that Tighten replaced, kept as its
// reference. It is PropagateDelta — propagate the constraints' own variables
// from parent (DefaultDomain for a name parent lacks) and collect the atoms
// the result does not entail — followed by the interval backend's old
// propagateFrame: diff the tightened domains against parent, reading a
// missing name as Interval{0,0}, and copy parent overlaid with them only when
// one differs.
func refTighten(parent map[string]Interval, constraints []sym.Expr) refResult {
	ref := New(Options{})
	var compiled []*constraint
	for _, e := range constraints {
		compiled = append(compiled, ref.compile(e)...)
	}
	if len(compiled) == 0 {
		return refResult{box: parent, shared: true, ok: true}
	}
	p := newProblem(compiled, nil)
	if p.trivialUnsat {
		return refResult{}
	}
	dom := make([]Interval, len(p.varNames))
	for i, name := range p.varNames {
		if d, found := parent[name]; found {
			dom[i] = d
		} else {
			dom[i] = DefaultDomain
		}
	}
	var st Stats
	if !p.propagate(dom, &st) {
		return refResult{}
	}
	out := refResult{ok: true}
	for i := range p.views {
		if p.truthOf(&p.views[i], dom) != truthTrue {
			out.residual = append(out.residual, p.views[i].c.expr)
		}
	}
	delta := make(map[string]Interval, len(p.varNames))
	for i, name := range p.varNames {
		delta[name] = dom[i]
	}
	changed := false
	for name, d := range delta {
		if _, found := parent[name]; !found && d == (Interval{}) {
			out.zeroMissing = true
		}
		if parent[name] != d {
			changed = true
		}
	}
	if !changed {
		out.box, out.shared = parent, true
		return out
	}
	out.box = make(map[string]Interval, len(parent)+len(delta))
	for name, d := range parent {
		out.box[name] = d
	}
	for name, d := range delta {
		out.box[name] = d
	}
	return out
}

// refResult is refTighten's outcome. shared reports that parent itself was
// returned; zeroMissing that a name parent lacks was tightened to exactly
// [0,0], the value a missing name reads as.
type refResult struct {
	box         map[string]Interval
	shared      bool
	residual    []sym.Expr
	ok          bool
	zeroMissing bool
}

// boxOf builds the Box of a map that holds every input of s.
func boxOf(s *Solver, m map[string]Interval) *Box {
	b := &Box{iv: make([]Interval, len(s.index.names))}
	for i, name := range s.index.names {
		b.iv[i] = m[name]
	}
	for name, d := range m {
		if _, in := s.index.pos[name]; !in {
			if b.outside == nil {
				b.outside = map[string]Interval{}
			}
			b.outside[name] = d
		}
	}
	return b
}

// mapOf returns a box as a map from name to domain.
func mapOf(s *Solver, b *Box) map[string]Interval {
	m := map[string]Interval{}
	for i, name := range s.index.names {
		m[name] = b.iv[i]
	}
	for name, d := range b.outside {
		m[name] = d
	}
	return m
}

// tightenGen draws random boxes and frames over four inputs and two names
// outside the index (U, V: locals read before they are assigned).
type tightenGen struct {
	r      *rand.Rand
	inputs map[string]Interval
}

var (
	tightenInputs  = []string{"A", "B", "C", "D"}
	tightenOutside = []string{"U", "V"}
)

func (g *tightenGen) name() string {
	all := append(append([]string(nil), tightenInputs...), tightenOutside...)
	return all[g.r.Intn(len(all))]
}

func (g *tightenGen) konst() sym.Expr {
	return sym.Int([]int64{-1, 0, 0, 1, 1, 2, 5, 10, 1_000_000}[g.r.Intn(9)])
}

func (g *tightenGen) cmpOp() sym.Op {
	return []sym.Op{sym.OpLT, sym.OpLE, sym.OpGT, sym.OpGE, sym.OpEQ, sym.OpNE}[g.r.Intn(6)]
}

// interval draws a non-empty sub-interval of d, or [0,0].
func (g *tightenGen) interval(d Interval) Interval {
	if g.r.Intn(4) == 0 {
		return Interval{}
	}
	lo := d.Lo + g.r.Int63n(min2(d.Hi-d.Lo, 30)+1)
	return Interval{Lo: lo, Hi: lo + g.r.Int63n(min2(d.Hi-lo, 30)+1)}
}

// box draws a parent: some inputs narrowed, some outside names present.
func (g *tightenGen) box() map[string]Interval {
	m := map[string]Interval{}
	for name, d := range g.inputs {
		m[name] = d
		if g.r.Intn(2) == 0 {
			m[name] = g.interval(d)
		}
	}
	for _, name := range tightenOutside {
		if g.r.Intn(3) == 0 {
			m[name] = g.interval(DefaultDomain)
		}
	}
	return m
}

func (g *tightenGen) constraint() sym.Expr {
	v := func() sym.Expr { return sym.V(g.name()) }
	switch g.r.Intn(9) {
	case 0, 1, 2:
		return sym.Cmp(g.cmpOp(), v(), g.konst())
	case 3:
		return sym.Cmp(g.cmpOp(), v(), v())
	case 4:
		return sym.Cmp(g.cmpOp(), sym.Add(v(), v()), g.konst())
	case 5:
		return sym.Cmp(sym.OpEQ, sym.Mul(v(), v()), g.konst())
	case 6:
		return sym.Cmp(sym.OpEQ, sym.Mod(v(), sym.Int(3)), sym.One)
	case 7:
		return sym.AndE(sym.Cmp(g.cmpOp(), v(), g.konst()), sym.Cmp(g.cmpOp(), v(), g.konst()))
	default:
		return sym.True
	}
}

func (g *tightenGen) frame() []sym.Expr {
	cs := []sym.Expr{g.constraint()}
	if g.r.Intn(4) == 0 {
		cs = append(cs, g.constraint())
	}
	return cs
}

// TestTightenMatchesMapReference compares Tighten with the map-based
// reference over random parent boxes and frames, and along random chains of
// frames that start at the base box, so the parents include boxes Tighten
// itself widened with names outside the index. Each case must agree on ok,
// on the key set and values of the box, on the residual, and on whether the
// parent itself came back; Tighten must leave its parent unchanged.
func TestTightenMatchesMapReference(t *testing.T) {
	inputs := map[string]Interval{"A": {0, 20}, "B": DefaultDomain, "C": BoolDomain, "D": {-5, 5}}
	s := NewIndexed(Options{}, inputs)
	g := &tightenGen{r: rand.New(rand.NewSource(1)), inputs: inputs}
	var shared, widened, conflicts, zeroMissing int
	compare := func(parentMap map[string]Interval, parent *Box, frame []sym.Expr) *Box {
		t.Helper()
		before := mapOf(s, parent)
		box, residual, ok := s.Tighten(parent, frame)
		want := refTighten(parentMap, frame)
		if !reflect.DeepEqual(mapOf(s, parent), before) {
			t.Fatalf("Tighten(%v, %v) wrote into its parent", parentMap, frame)
		}
		if ok != want.ok {
			t.Fatalf("Tighten(%v, %v): ok = %v, reference %v", parentMap, frame, ok, want.ok)
		}
		if !ok {
			conflicts++
			if box != nil || residual != nil {
				t.Fatalf("Tighten(%v, %v): refutation returned (%v, %v)", parentMap, frame, box, residual)
			}
			return nil
		}
		if got := mapOf(s, box); !reflect.DeepEqual(got, want.box) {
			t.Fatalf("Tighten(%v, %v): box %v, reference %v", parentMap, frame, got, want.box)
		}
		if !reflect.DeepEqual(residual, want.residual) {
			t.Fatalf("Tighten(%v, %v): residual %v, reference %v", parentMap, frame, residual, want.residual)
		}
		if (box == parent) != want.shared {
			t.Fatalf("Tighten(%v, %v): parent shared = %v, reference %v", parentMap, frame, box == parent, want.shared)
		}
		if box.outside != nil && len(box.outside) == 0 {
			t.Fatalf("Tighten(%v, %v): empty non-nil outside map", parentMap, frame)
		}
		switch {
		case want.shared:
			shared++
		case len(box.outside) > len(parent.outside):
			widened++
		}
		if want.zeroMissing {
			zeroMissing++
		}
		return box
	}

	for i := 0; i < 4000; i++ {
		m := g.box()
		compare(m, boxOf(s, m), g.frame())
	}
	for chain := 0; chain < 1000; chain++ {
		parentMap, parent := mapOf(s, s.Base()), s.Base()
		for depth := 0; depth < 8 && parent != nil; depth++ {
			frame := g.frame()
			box := compare(parentMap, parent, frame)
			if box != nil {
				parentMap = mapOf(s, box)
			}
			parent = box
		}
	}
	t.Logf("shared %d, widened with outside names %d, conflicts %d, missing names tightened to [0,0] %d",
		shared, widened, conflicts, zeroMissing)
	if shared == 0 || widened == 0 || conflicts == 0 || zeroMissing == 0 {
		t.Errorf("the random cases missed a category: shared %d, widened %d, conflicts %d, [0,0] %d",
			shared, widened, conflicts, zeroMissing)
	}
}

// TestTightenOutOfDomainZero pins the out-of-domain case directly: U is a
// name outside the index (a local read before it is assigned). U < 1
// tightens U from DefaultDomain to exactly [0,0], which the no-change test
// reads as the missing name's zero value, so the parent box comes back and
// the atom, entailed, leaves no residual. A frame that also tightens an
// input adds U to the new box, and a Check over that box, which holds a
// name outside the index, agrees with Check over the same map.
func TestTightenOutOfDomainZero(t *testing.T) {
	s := NewIndexed(Options{}, map[string]Interval{"A": {0, 20}})
	base := s.Base()
	uLess1 := sym.Cmp(sym.OpLT, sym.V("U"), sym.One)
	box, residual, ok := s.Tighten(base, []sym.Expr{uLess1})
	if !ok || box != base || residual != nil {
		t.Fatalf("U < 1: got (%v, %v, %v), want the base box, no residual", box, residual, ok)
	}
	aGT3 := sym.Cmp(sym.OpGT, sym.V("A"), sym.Int(3))
	box, _, ok = s.Tighten(base, []sym.Expr{uLess1, aGT3})
	want := map[string]Interval{"A": {4, 20}, "U": {0, 0}}
	if !ok || !reflect.DeepEqual(mapOf(s, box), want) {
		t.Fatalf("U < 1, A > 3: got %v (ok %v), want %v", mapOf(s, box), ok, want)
	}
	for _, cs := range [][]sym.Expr{
		{sym.Cmp(sym.OpGT, sym.V("U"), sym.Zero)},
		{sym.Cmp(sym.OpLE, sym.V("U"), sym.Zero), sym.Cmp(sym.OpNE, sym.V("A"), sym.Int(4))},
	} {
		got, ref := s.CheckBox(cs, box), New(Options{}).Check(cs, want)
		if !sameResult(got, ref) {
			t.Errorf("CheckBox(%v) = %+v, Check over the map %+v", cs, got, ref)
		}
	}
}
