package diff

import (
	"reflect"
	"testing"

	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/lang/token"
	"dise/internal/randprog"
)

func parse(t *testing.T, src string) *ast.Procedure {
	t.Helper()
	_, pr, err := parser.ParseProcedure(src, "")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return pr
}

const fig2Base = `
proc update(int PedalPos, int BSwitch, int PedalCmd) {
  if (PedalPos == 0) {
    PedalCmd = PedalCmd + 1;
  } else if (PedalPos == 1) {
    PedalCmd = PedalCmd + 2;
  } else {
    PedalCmd = PedalPos;
  }
  PedalCmd = PedalCmd + 1;
  if (BSwitch == 0) {
    Meter = 1;
  } else if (BSwitch == 1) {
    Meter = 2;
  }
  if (PedalCmd == 2) {
    AltPress = 0;
  } else if (PedalCmd == 3) {
    AltPress = 1;
  } else {
    AltPress = 2;
  }
}
`

// fig2Mod changes the first conditional == to <=, the paper's Fig. 2 change.
const fig2Mod = `
proc update(int PedalPos, int BSwitch, int PedalCmd) {
  if (PedalPos <= 0) {
    PedalCmd = PedalCmd + 1;
  } else if (PedalPos == 1) {
    PedalCmd = PedalCmd + 2;
  } else {
    PedalCmd = PedalPos;
  }
  PedalCmd = PedalCmd + 1;
  if (BSwitch == 0) {
    Meter = 1;
  } else if (BSwitch == 1) {
    Meter = 2;
  }
  if (PedalCmd == 2) {
    AltPress = 0;
  } else if (PedalCmd == 3) {
    AltPress = 1;
  } else {
    AltPress = 2;
  }
}
`

func TestFig2Diff(t *testing.T) {
	base, mod := parse(t, fig2Base), parse(t, fig2Mod)
	r := Procedures(base, mod)
	// Exactly one changed statement on each side: the first conditional
	// (line 3 in both sources).
	if got := r.ChangedModLines(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("changed mod lines = %v, want [3]", got)
	}
	if got := linesWith(r.BaseMarks, Changed); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("changed base lines = %v, want [3]", got)
	}
	if len(r.AddedLines()) != 0 || len(r.RemovedLines()) != 0 {
		t.Errorf("added=%v removed=%v, want none", r.AddedLines(), r.RemovedLines())
	}
	// Every base statement must be paired (nothing was removed).
	count := 0
	ast.Walk(base.Body.Stmts, func(s ast.Stmt) { count++ })
	if len(r.Pairs) != count {
		t.Errorf("pairs = %d, want %d (every base statement paired)", len(r.Pairs), count)
	}
	// The changed if statements must be paired with each other.
	baseIf := base.Body.Stmts[0].(*ast.If)
	modIf := mod.Body.Stmts[0].(*ast.If)
	if r.Pairs[baseIf] != modIf {
		t.Error("changed conditional must map to its counterpart")
	}
	if r.Identical() {
		t.Error("diff must not report identical")
	}
}

func TestIdenticalPrograms(t *testing.T) {
	base, mod := parse(t, fig2Base), parse(t, fig2Base)
	r := Procedures(base, mod)
	if !r.Identical() {
		t.Error("identical programs must produce an identical diff")
	}
	count := 0
	ast.Walk(base.Body.Stmts, func(s ast.Stmt) { count++ })
	if len(r.Pairs) != count {
		t.Errorf("pairs = %d, want %d", len(r.Pairs), count)
	}
}

func TestAddedStatement(t *testing.T) {
	base := parse(t, `proc p(int x) {
		a = x;
		b = x + 1;
	}`)
	mod := parse(t, `proc p(int x) {
		a = x;
		inserted = 42;
		b = x + 1;
	}`)
	r := Procedures(base, mod)
	if got := r.AddedLines(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("added lines = %v, want [3]", got)
	}
	if len(r.RemovedLines()) != 0 || len(r.ChangedModLines()) != 0 {
		t.Errorf("unexpected removed=%v changed=%v", r.RemovedLines(), r.ChangedModLines())
	}
}

func TestRemovedStatement(t *testing.T) {
	base := parse(t, `proc p(int x) {
		a = x;
		dropped = 42;
		b = x + 1;
	}`)
	mod := parse(t, `proc p(int x) {
		a = x;
		b = x + 1;
	}`)
	r := Procedures(base, mod)
	if got := r.RemovedLines(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("removed lines = %v, want [3]", got)
	}
	// Removed statements have no pair (diffMap.get returns nothing).
	for s, m := range r.BaseMarks {
		if m == Removed {
			if _, ok := r.Pairs[s]; ok {
				t.Error("removed statement must not be paired")
			}
		}
	}
}

func TestChangedAssignment(t *testing.T) {
	base := parse(t, `proc p(int x) {
		a = x;
		b = x + 1;
	}`)
	mod := parse(t, `proc p(int x) {
		a = x;
		b = x + 2;
	}`)
	r := Procedures(base, mod)
	if got := r.ChangedModLines(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("changed lines = %v, want [3]", got)
	}
}

func TestChangeInsideNestedBranch(t *testing.T) {
	base := parse(t, `proc p(int x) {
		if (x > 0) {
			if (x > 10) {
				y = 1;
			} else {
				y = 2;
			}
		}
		z = 0;
	}`)
	mod := parse(t, `proc p(int x) {
		if (x > 0) {
			if (x > 10) {
				y = 1;
			} else {
				y = 3;
			}
		}
		z = 0;
	}`)
	r := Procedures(base, mod)
	if got := r.ChangedModLines(); !reflect.DeepEqual(got, []int{6}) {
		t.Errorf("changed lines = %v, want [6]", got)
	}
	// The enclosing ifs are unchanged.
	outer := mod.Body.Stmts[0].(*ast.If)
	if r.ModMarks[outer] != Unchanged {
		t.Errorf("outer if mark = %v, want unchanged", r.ModMarks[outer])
	}
	inner := outer.Then.Stmts[0].(*ast.If)
	if r.ModMarks[inner] != Unchanged {
		t.Errorf("inner if mark = %v, want unchanged", r.ModMarks[inner])
	}
}

func TestChangedLoopCondition(t *testing.T) {
	base := parse(t, `proc p(int n) {
		i = 0;
		while (i < n) {
			i = i + 1;
		}
	}`)
	mod := parse(t, `proc p(int n) {
		i = 0;
		while (i <= n) {
			i = i + 1;
		}
	}`)
	r := Procedures(base, mod)
	if got := r.ChangedModLines(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("changed lines = %v, want [3]", got)
	}
	// Loop body unchanged and paired.
	baseBody := base.Body.Stmts[1].(*ast.While).Body.Stmts[0]
	modBody := mod.Body.Stmts[1].(*ast.While).Body.Stmts[0]
	if r.Pairs[baseBody] != modBody {
		t.Error("loop body must be paired")
	}
	if r.ModMarks[modBody] != Unchanged {
		t.Error("loop body must be unchanged")
	}
}

func TestElseBranchAddedRemoved(t *testing.T) {
	base := parse(t, `proc p(int x) {
		if (x > 0) {
			y = 1;
		}
	}`)
	mod := parse(t, `proc p(int x) {
		if (x > 0) {
			y = 1;
		} else {
			y = 2;
		}
	}`)
	r := Procedures(base, mod)
	if got := r.AddedLines(); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("added lines = %v, want [5]", got)
	}
	// Reverse direction: else removed.
	r2 := Procedures(mod, base)
	if got := r2.RemovedLines(); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("removed lines = %v, want [5]", got)
	}
}

func TestMultipleChanges(t *testing.T) {
	base := parse(t, `proc p(int a, int b) {
		x = a;
		if (a > b) {
			y = a - b;
		} else {
			y = b - a;
		}
		z = x + y;
	}`)
	mod := parse(t, `proc p(int a, int b) {
		x = a + 1;
		if (a >= b) {
			y = a - b;
		} else {
			y = b - a;
		}
		z = x + y;
	}`)
	r := Procedures(base, mod)
	if got := r.ChangedModLines(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("changed lines = %v, want [2 3]", got)
	}
}

func TestStatementKindSwap(t *testing.T) {
	// An assignment replaced by an if: remove + add, not a change pair.
	base := parse(t, `proc p(int x) {
		y = 1;
	}`)
	mod := parse(t, `proc p(int x) {
		if (x > 0) {
			y = 1;
		}
	}`)
	r := Procedures(base, mod)
	if got := r.RemovedLines(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("removed = %v, want [2]", got)
	}
	// Both the if and its body are added.
	if got := r.AddedLines(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("added = %v, want [2 3]", got)
	}
}

func TestLCSAnchorsSurviveSurroundingChanges(t *testing.T) {
	// A changed statement before and after an identical region must not
	// desynchronize the matching of the identical region.
	base := parse(t, `proc p(int x) {
		a = 1;
		m1 = x;
		m2 = x + x;
		b = 1;
	}`)
	mod := parse(t, `proc p(int x) {
		a = 2;
		m1 = x;
		m2 = x + x;
		b = 2;
	}`)
	r := Procedures(base, mod)
	if got := r.ChangedModLines(); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Errorf("changed lines = %v, want [2 5]", got)
	}
	for s, m := range r.ModMarks {
		if a, ok := s.(*ast.Assign); ok && (a.Name == "m1" || a.Name == "m2") && m != Unchanged {
			t.Errorf("middle statement %s marked %v, want unchanged", a, m)
		}
	}
}

func TestWhollyDifferentBodies(t *testing.T) {
	base := parse(t, `proc p(int x) {
		a = 1;
		b = 2;
	}`)
	mod := parse(t, `proc p(int x) {
		if (x > 0) {
			c = 3;
		}
		while (x > 0) {
			x = x - 1;
		}
	}`)
	r := Procedures(base, mod)
	if got := len(r.RemovedLines()); got != 2 {
		t.Errorf("removed count = %d, want 2", got)
	}
	// All mod statements added: if, c=3, while, x=x-1.
	if got := len(r.AddedLines()); got != 4 {
		t.Errorf("added count = %d, want 4", got)
	}
}

func TestDuplicateStatementsAlign(t *testing.T) {
	// Repeated identical statements: LCS must align them in order.
	base := parse(t, `proc p(int x) {
		x = x + 1;
		x = x + 1;
		x = x + 1;
	}`)
	mod := parse(t, `proc p(int x) {
		x = x + 1;
		x = x + 1;
	}`)
	r := Procedures(base, mod)
	if got := len(r.RemovedLines()); got != 1 {
		t.Errorf("removed = %v, want exactly one", r.RemovedLines())
	}
	if len(r.AddedLines()) != 0 {
		t.Errorf("added = %v, want none", r.AddedLines())
	}
}

// TestSuffixTrimKeepsTracebackChoice pins the guard on the common-suffix
// trim. The full LCS traceback skips the base "x = 1;" on a tie and matches
// "y = 2;" with the first mod statement, so "x = 1;" is removed and the
// second "y = 2;" added. Trimming the shared trailing "y = 2;" regardless
// would leave "x = 1;" against "y = 2;", which diffGap pairs as changed.
func TestSuffixTrimKeepsTracebackChoice(t *testing.T) {
	base := parse(t, "proc p() {\n  x = 1;\n  y = 2;\n}")
	mod := parse(t, "proc p() {\n  y = 2;\n  y = 2;\n}")
	r := Procedures(base, mod)
	bs, ms := base.Body.Stmts, mod.Body.Stmts
	if r.BaseMarks[bs[0]] != Removed || r.BaseMarks[bs[1]] != Unchanged {
		t.Errorf("base marks = %v, %v; want removed, unchanged", r.BaseMarks[bs[0]], r.BaseMarks[bs[1]])
	}
	if r.ModMarks[ms[0]] != Unchanged || r.ModMarks[ms[1]] != Added {
		t.Errorf("mod marks = %v, %v; want unchanged, added", r.ModMarks[ms[0]], r.ModMarks[ms[1]])
	}
	if r.Pairs[bs[1]] != ms[0] || len(r.Pairs) != 1 {
		t.Errorf("pairs = %v, want only y = 2; with the first mod statement", r.Pairs)
	}
}

// TestIDsEqualExactlyWhenTextsEqual checks the interner's contract on every
// statement and condition of 400 random programs (200 seeds, base and
// mutant, half with loops) and of hand-written shapes the printer could
// confuse: two ids are equal exactly when the String() texts are.
func TestIDsEqualExactlyWhenTextsEqual(t *testing.T) {
	in := newInterner()
	var stmts []ast.Stmt
	var conds []ast.Expr
	add := func(pr *ast.Procedure) {
		in.block(pr.Body)
		ast.Walk(pr.Body.Stmts, func(s ast.Stmt) {
			stmts = append(stmts, s)
			switch s := s.(type) {
			case *ast.If:
				conds = append(conds, s.Cond)
			case *ast.While:
				conds = append(conds, s.Cond)
			case *ast.Assert:
				conds = append(conds, s.Cond)
			}
		})
	}
	add(parse(t, `proc p(int a, int b) {
		x = -5; x = 0 - 5; x = a - -5; x = -a; x = -(a + b); x = -(-a);
		if (a > 0) { x = 1; } if (a > 0) { x = 1; } else { } if (a > 0) { x = 1; } else { x = 1; }
		if (a > 0) { x = 1; } else { if (b > 0) { x = 1; } }
		if (a > 0) { x = 1; } else if (b > 0) { x = 1; }
		{ x = 1; } { x = 1; y = 2; } { } skip; return;
		while (!(a > b)) { skip; } while (!(a > b)) { } assert a + b * 2 > (a + b) * 2;
	}`))
	// The parser folds "-5"; the negation of the literal 5 prints the same.
	neg := &ast.Assign{Name: "x", Value: &ast.Unary{Op: token.MINUS, X: &ast.IntLit{Value: 5}}}
	negNeg := &ast.Assign{Name: "x", Value: &ast.Unary{Op: token.MINUS, X: neg.Value}}
	minus0 := &ast.Assign{Name: "x", Value: &ast.Unary{Op: token.MINUS, X: &ast.IntLit{Value: 0}}}
	add(&ast.Procedure{Body: &ast.Block{Stmts: []ast.Stmt{neg, negNeg, minus0,
		&ast.Assign{Name: "x", Value: &ast.Unary{Op: token.MINUS, X: &ast.IntLit{Value: -5}}},
		&ast.Call{Callee: "f", Args: []ast.Expr{&ast.Ident{Name: "a"}, &ast.IntLit{Value: 1}}},
		&ast.Call{Callee: "f"},
	}}})
	for seed := int64(0); seed < 200; seed++ {
		gen := randprog.New(seed, randprog.Config{Loops: seed%2 == 0})
		prog := gen.Program()
		mutant, _ := gen.Mutate(prog, 3)
		add(prog.Proc("p"))
		add(mutant.Proc("p"))
	}
	// Equal ids exactly when equal texts: text → id and id → text are both
	// functions.
	check := func(text string, id int32, byText map[string]int32, byID map[int32]string) {
		t.Helper()
		if other, ok := byText[text]; ok && other != id {
			t.Fatalf("%q has ids %d and %d", text, other, id)
		}
		if other, ok := byID[id]; ok && other != text {
			t.Fatalf("id %d names both %q and %q", id, other, text)
		}
		byText[text], byID[id] = id, text
	}
	byText, byID := map[string]int32{}, map[int32]string{}
	for _, s := range stmts {
		check(s.String(), in.stmts[s], byText, byID)
	}
	for _, e := range conds {
		check(e.String(), in.expr(e), byText, byID)
	}
	if len(byText) < 1000 {
		t.Errorf("only %d distinct texts checked", len(byText))
	}
}
