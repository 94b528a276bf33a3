package solver

import (
	"reflect"
	"testing"

	"dise/internal/artifacts"
	"dise/internal/lang/ast"
	"dise/internal/sym"
)

// TestCheckIndexedResultsPinned pins Check's exact results — verdict, full
// model and search counters, as the per-check indexing of newProblem
// computes them — for a solver indexed over X, Y, Z and for an unindexed
// one. The index is a cache: a constraint naming a symbol outside it (a
// local read before it is assigned), a box carrying an extra key, or a box
// missing an input all fall back to the problem's own sorted variable
// order, with DefaultDomain for an unboxed symbol.
func TestCheckIndexedResultsPinned(t *testing.T) {
	inputs := map[string]Interval{"X": {0, 20}, "Y": {0, 20}, "Z": BoolDomain}
	v3 := sym.V("V3")
	tests := []struct {
		name  string
		cs    []sym.Expr
		box   map[string]Interval
		want  Result
		nodes int
		props int
	}{
		{
			name: "all names in the index",
			cs: []sym.Expr{
				sym.Cmp(sym.OpEQ, sym.Add(x(), y()), sym.Int(17)),
				sym.Cmp(sym.OpGT, x(), sym.Mul(sym.Int(2), y())),
				sym.Cmp(sym.OpNE, x(), sym.Int(12)),
				sym.V("Z"),
			},
			box:   inputs,
			want:  Result{Sat: true, Model: map[string]int64{"X": 13, "Y": 4, "Z": 1}},
			nodes: 2, props: 10,
		},
		{
			name: "all names in the index, unsat",
			cs: []sym.Expr{
				sym.Cmp(sym.OpEQ, sym.Mul(x(), y()), sym.Int(23)),
				sym.Cmp(sym.OpGT, x(), sym.One),
				sym.Cmp(sym.OpGT, y(), sym.One),
			},
			box:   inputs,
			want:  Result{},
			nodes: 32, props: 99,
		},
		{
			name: "constraint names a symbol outside the index",
			cs: []sym.Expr{
				sym.Cmp(sym.OpLT, v3, sym.Int(5)),
				sym.Cmp(sym.OpEQ, sym.Mul(x(), v3), sym.Int(12)),
				sym.Cmp(sym.OpGE, y(), x()),
			},
			box:   inputs,
			want:  Result{Sat: true, Model: map[string]int64{"V3": 1, "X": 12, "Y": 12, "Z": 0}},
			nodes: 4, props: 11,
		},
		{
			name: "box carries an extra key",
			cs: []sym.Expr{
				sym.Cmp(sym.OpEQ, sym.Add(x(), v3), sym.Int(9)),
				sym.Cmp(sym.OpLE, y(), x()),
			},
			box:   map[string]Interval{"X": {0, 20}, "Y": {3, 20}, "Z": BoolDomain, "V3": {2, 4}},
			want:  Result{Sat: true, Model: map[string]int64{"V3": 2, "X": 7, "Y": 3, "Z": 0}},
			nodes: 1, props: 4,
		},
		{
			name:  "box carries an extra key no constraint mentions",
			cs:    []sym.Expr{sym.Cmp(sym.OpGT, x(), y())},
			box:   map[string]Interval{"X": {0, 20}, "Y": {0, 20}, "Z": BoolDomain, "V3": {2, 4}},
			want:  Result{Sat: true, Model: map[string]int64{"V3": 2, "X": 1, "Y": 0, "Z": 0}},
			nodes: 3, props: 8,
		},
		{
			name:  "box misses an input",
			cs:    []sym.Expr{sym.Cmp(sym.OpGT, x(), sym.Int(4))},
			box:   map[string]Interval{"X": {0, 20}, "Y": {0, 20}},
			want:  Result{Sat: true, Model: map[string]int64{"X": 5, "Y": 0}},
			nodes: 0, props: 2,
		},
	}
	for _, tt := range tests {
		for _, s := range []*Solver{NewIndexed(Options{}, inputs), New(Options{})} {
			// Twice on one solver: the second Check reuses the views the
			// first resolved and cached on the compiled constraints.
			for round := 0; round < 2; round++ {
				got := s.Check(tt.cs, tt.box)
				if !reflect.DeepEqual(got, tt.want) {
					t.Errorf("%s (indexed %v, round %d): got %+v, want %+v",
						tt.name, len(s.inputs) > 0, round, got, tt.want)
				}
			}
			if st := s.Stats(); st.SearchNodes != 2*tt.nodes || st.Propagations != 2*tt.props {
				t.Errorf("%s (indexed %v): %d search nodes, %d propagations over two checks, want %d, %d",
					tt.name, len(s.inputs) > 0, st.SearchNodes, st.Propagations, 2*tt.nodes, 2*tt.props)
			}
		}
	}
}

// oaeInputs returns the domains of the OAE artifact's 25 symbolic inputs
// (its parameters and globals), as the engine declares them. OAE's names
// are already capitalized, so they are its symbols' names too.
func oaeInputs(t *testing.T) map[string]Interval {
	t.Helper()
	art, ok := artifacts.ByName("OAE")
	if !ok {
		t.Fatal("no OAE artifact")
	}
	prog := art.BaseProgram()
	inputs := map[string]Interval{}
	declare := func(name string, typ ast.Type) {
		if typ == ast.TypeBool {
			inputs[name] = BoolDomain
		} else {
			inputs[name] = DefaultDomain
		}
	}
	for _, p := range prog.Proc(art.Proc).Params {
		declare(p.Name, p.Type)
	}
	for _, g := range prog.Globals {
		declare(g.Name, g.Type)
	}
	if len(inputs) != 25 {
		t.Fatalf("OAE has %d symbolic inputs, want 25", len(inputs))
	}
	return inputs
}

// TestCheckFullSolveAllocs bounds the allocations of one typical full
// solve (one search node) over OAE's 25 inputs on an indexed solver: the
// constraint list, the problem with its domain and view slices, one child
// box and the model map — 9 with Go 1.24, nothing for indexing the inputs.
// The unindexed solver builds a name set, a sorted name slice, an index map
// and every constraint's view on each Check, about 40 allocations more.
func TestCheckFullSolveAllocs(t *testing.T) {
	inputs := oaeInputs(t)
	sensor, phase := sym.V("Sensor"), sym.V("Phase")
	cs := []sym.Expr{
		sym.Cmp(sym.OpGT, sensor, sym.Int(3)),
		sym.Cmp(sym.OpLE, sensor, sym.Int(7)),
		sym.Cmp(sym.OpEQ, sym.Add(phase, sensor), sym.Int(9)),
		sym.V("B3"),
	}
	indexed, plain := NewIndexed(Options{}, inputs), New(Options{})
	want := plain.Check(cs, inputs)
	if got := indexed.Check(cs, inputs); !want.Sat || !reflect.DeepEqual(got, want) {
		t.Fatalf("indexed solve %+v, unindexed %+v", got, want)
	}
	allocs := testing.AllocsPerRun(50, func() { indexed.Check(cs, inputs) })
	plainAllocs := testing.AllocsPerRun(50, func() { plain.Check(cs, inputs) })
	const bound = 12
	if allocs > bound {
		t.Errorf("indexed full solve allocates %.0f times, bound %d (unindexed: %.0f)", allocs, bound, plainAllocs)
	}
	t.Logf("allocs per full solve: indexed %.0f, unindexed %.0f", allocs, plainAllocs)
}
