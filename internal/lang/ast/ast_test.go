package ast

import (
	"slices"
	"strings"
	"testing"

	"dise/internal/lang/token"
)

func ident(n string) *Ident  { return &Ident{Name: n} }
func intLit(v int64) *IntLit { return &IntLit{Value: v} }
func assign(n string, e Expr) *Assign {
	return &Assign{Name: n, Value: e}
}

func TestExprStrings(t *testing.T) {
	tests := []struct {
		e    Expr
		want string
	}{
		{intLit(42), "42"},
		{intLit(-3), "-3"},
		{&BoolLit{Value: true}, "true"},
		{&BoolLit{Value: false}, "false"},
		{ident("x"), "x"},
		{&Unary{Op: token.NOT, X: ident("b")}, "!b"},
		{&Unary{Op: token.MINUS, X: ident("x")}, "-x"},
		{&Binary{Op: token.PLUS, L: ident("x"), R: intLit(1)}, "x + 1"},
		{&Binary{Op: token.LAND,
			L: &Binary{Op: token.GT, L: ident("x"), R: intLit(0)},
			R: &Binary{Op: token.LT, L: ident("y"), R: intLit(9)}},
			"(x > 0) && (y < 9)"},
		{&Unary{Op: token.NOT, X: &Binary{Op: token.EQ, L: ident("x"), R: intLit(1)}}, "!(x == 1)"},
		{&Binary{Op: token.STAR,
			L: &Unary{Op: token.MINUS, X: &Binary{Op: token.PLUS, L: ident("x"), R: intLit(1)}},
			R: ident("y")},
			"-(x + 1) * y"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// TestExprStringAllocs bounds the allocations of rendering a 20,000-operator
// chain: the printer writes every level into one builder, so the count is
// the builder's growth steps, not a string per level (quadratic bytes).
func TestExprStringAllocs(t *testing.T) {
	var e Expr = ident("a")
	for i := 0; i < 20000; i++ {
		e = &Binary{Op: token.PLUS, L: e, R: ident("a")}
	}
	if got, want := e.String(), strings.Repeat("(", 19999)+"a + a"+strings.Repeat(") + a", 19999); got != want {
		t.Fatalf("chain renders as %.40q…, want %.40q…", got, want)
	}
	const bound = 64
	if allocs := testing.AllocsPerRun(5, func() { _ = e.String() }); allocs > bound {
		t.Errorf("String() of a 20,000-operator chain allocates %.0f times, bound %d", allocs, bound)
	}
}

func TestStmtStrings(t *testing.T) {
	blk := &Block{Stmts: []Stmt{assign("x", intLit(1))}}
	tests := []struct {
		s    Stmt
		want string
	}{
		{assign("x", intLit(1)), "x = 1;"},
		{&Skip{}, "skip;"},
		{&Return{}, "return;"},
		{&Assert{Cond: &Binary{Op: token.GE, L: ident("x"), R: intLit(0)}}, "assert x >= 0;"},
		{&If{Cond: ident("b"), Then: blk}, "if (b) { x = 1; }"},
		{&If{Cond: ident("b"), Then: blk, Else: blk}, "if (b) { x = 1; } else { x = 1; }"},
		{&While{Cond: ident("b"), Body: blk}, "while (b) { x = 1; }"},
		{&Call{Callee: "f", Args: []Expr{ident("x"), intLit(2)}}, "f(x, 2);"},
		{&Call{Callee: "g"}, "g();"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestWalkVisitsNestedStatements(t *testing.T) {
	inner := assign("y", intLit(2))
	loop := &While{Cond: ident("b"), Body: &Block{Stmts: []Stmt{inner}}}
	cond := &If{
		Cond: ident("b"),
		Then: &Block{Stmts: []Stmt{loop}},
		Else: &Block{Stmts: []Stmt{&Skip{}}},
	}
	var seen []string
	Walk([]Stmt{cond, assign("z", intLit(3))}, func(s Stmt) {
		seen = append(seen, s.String())
	})
	if len(seen) != 5 {
		t.Fatalf("visited %d statements, want 5: %v", len(seen), seen)
	}
	// Pre-order: if, while, y=2, skip, z=3.
	if !strings.HasPrefix(seen[0], "if") || seen[2] != "y = 2;" || seen[4] != "z = 3;" {
		t.Errorf("wrong order: %v", seen)
	}
}

func TestWalkExprAndVars(t *testing.T) {
	e := &Binary{Op: token.PLUS,
		L: &Unary{Op: token.MINUS, X: ident("a")},
		R: &Binary{Op: token.STAR, L: ident("b"), R: ident("a")}}
	count := 0
	WalkExpr(e, func(Expr) { count++ })
	if count != 6 {
		t.Errorf("visited %d nodes, want 6", count)
	}
	// The variables read are the identifiers the walk visits.
	idents := func(e Expr) []string {
		var out []string
		WalkExpr(e, func(x Expr) {
			if id, ok := x.(*Ident); ok {
				out = append(out, id.Name)
			}
		})
		return out
	}
	if got := idents(e); !slices.Equal(got, []string{"a", "b", "a"}) {
		t.Errorf("identifiers = %v, want [a b a]", got)
	}
	if got := idents(intLit(1)); len(got) != 0 {
		t.Errorf("identifiers of a literal = %v, want none", got)
	}
}

func TestCloneStmtIndependence(t *testing.T) {
	orig := &If{
		Cond: &Binary{Op: token.GT, L: ident("x"), R: intLit(0)},
		Then: &Block{Stmts: []Stmt{assign("y", ident("x"))}},
	}
	clone := CloneStmt(orig).(*If)
	clone.Cond.(*Binary).Op = token.LT
	clone.Then.Stmts[0].(*Assign).Name = "changed"
	if orig.Cond.(*Binary).Op != token.GT {
		t.Error("clone shares condition with original")
	}
	if orig.Then.Stmts[0].(*Assign).Name != "y" {
		t.Error("clone shares body with original")
	}
}

func TestCloneCallIndependence(t *testing.T) {
	orig := &Call{Callee: "f", Args: []Expr{ident("x")}}
	clone := CloneStmt(orig).(*Call)
	clone.Args[0].(*Ident).Name = "changed"
	if orig.Args[0].(*Ident).Name != "x" {
		t.Error("cloned call shares arguments")
	}
}

func TestProgramProcLookup(t *testing.T) {
	p := &Program{Procs: []*Procedure{
		{Name: "a", Body: &Block{}},
		{Name: "b", Body: &Block{}},
	}}
	if p.Proc("b") == nil || p.Proc("a") == nil {
		t.Error("Proc lookup failed")
	}
	if p.Proc("c") != nil {
		t.Error("Proc must return nil for unknown names")
	}
}

func TestPrettyIndentation(t *testing.T) {
	p := &Program{
		Globals: []*Global{{Name: "G", Type: TypeInt, Init: intLit(0)}},
		Procs: []*Procedure{{
			Name:   "p",
			Params: []Param{{Name: "x", Type: TypeInt}},
			Body: &Block{Stmts: []Stmt{
				&If{Cond: ident("b"), Then: &Block{Stmts: []Stmt{assign("y", intLit(1))}}},
				&Call{Callee: "q"},
			}},
		}},
	}
	got := Pretty(p)
	want := "int G = 0;\n\nproc p(int x) {\n  if (b) {\n    y = 1;\n  }\n  q();\n}\n"
	if got != want {
		t.Errorf("Pretty =\n%q\nwant\n%q", got, want)
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeInt.String() != "int" || TypeBool.String() != "bool" || TypeInvalid.String() != "invalid" {
		t.Error("Type.String wrong")
	}
	if (Param{Name: "x", Type: TypeBool}).String() != "bool x" {
		t.Error("Param.String wrong")
	}
}
