package parser

import (
	"strings"
	"testing"

	"dise/internal/lang/ast"
	"dise/internal/lang/token"
)

// fig2Source is the motivating example of the DiSE paper (Fig. 2(a)),
// transliterated into the mini-language. The modified conditional at the
// paper's line 2 is "PedalPos <= 0".
const fig2Source = `
int AltPress = 0;
int Meter = 2;

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

func TestParseFig2(t *testing.T) {
	prog, err := Parse(fig2Source)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Globals) != 2 {
		t.Fatalf("globals = %d, want 2", len(prog.Globals))
	}
	if prog.Globals[0].Name != "AltPress" || prog.Globals[1].Name != "Meter" {
		t.Errorf("global names = %s, %s", prog.Globals[0].Name, prog.Globals[1].Name)
	}
	pr := prog.Proc("update")
	if pr == nil {
		t.Fatal("procedure update not found")
	}
	if len(pr.Params) != 3 {
		t.Fatalf("params = %d, want 3", len(pr.Params))
	}
	if pr.Params[0].Name != "PedalPos" || pr.Params[0].Type != ast.TypeInt {
		t.Errorf("param 0 = %v", pr.Params[0])
	}
	// Body: if, assign, if, if = 4 statements.
	if len(pr.Body.Stmts) != 4 {
		t.Fatalf("body statements = %d, want 4", len(pr.Body.Stmts))
	}
	first, ok := pr.Body.Stmts[0].(*ast.If)
	if !ok {
		t.Fatalf("first statement is %T, want *ast.If", pr.Body.Stmts[0])
	}
	cond, ok := first.Cond.(*ast.Binary)
	if !ok || cond.Op != token.LE {
		t.Fatalf("first condition = %s, want PedalPos <= 0", first.Cond)
	}
	// else-if chain is a nested If in a one-statement else block.
	if first.Else == nil || len(first.Else.Stmts) != 1 {
		t.Fatalf("else block = %v, want single nested if", first.Else)
	}
	if _, ok := first.Else.Stmts[0].(*ast.If); !ok {
		t.Fatalf("else statement is %T, want *ast.If", first.Else.Stmts[0])
	}
}

func TestParseRoundTrip(t *testing.T) {
	prog, err := Parse(fig2Source)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	printed := ast.Pretty(prog)
	prog2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of pretty output failed: %v\n%s", err, printed)
	}
	if ast.Pretty(prog2) != printed {
		t.Errorf("pretty print not a fixed point:\n--- first\n%s\n--- second\n%s", printed, ast.Pretty(prog2))
	}
}

func TestParsePrecedence(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"x = 1 + 2 * 3;", "x = 1 + (2 * 3);"},
		{"x = 1 * 2 + 3;", "x = (1 * 2) + 3;"},
		{"x = 1 - 2 - 3;", "x = (1 - 2) - 3;"},
		{"x = (1 + 2) * 3;", "x = (1 + 2) * 3;"},
		{"b = 1 < 2 && 3 < 4;", "b = (1 < 2) && (3 < 4);"},
		{"b = a && b || c && d;", "b = (a && b) || (c && d);"},
		{"b = !(x == 1);", "b = !(x == 1);"},
		{"x = -y + 1;", "x = -y + 1;"},
		{"x = -5;", "x = -5;"},
		{"x = 7 % 3;", "x = 7 % 3;"},
	}
	for _, tt := range tests {
		prog, err := Parse("proc p(int x, int y, int a, bool b, bool c, bool d) { " + tt.src + " }")
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.src, err)
			continue
		}
		got := prog.Procs[0].Body.Stmts[0].String()
		// Normalize: the printer parenthesizes composite children, so compare
		// against the expected fully parenthesized rendering.
		if normalizeSpaces(got) != normalizeSpaces(tt.want) {
			t.Errorf("Parse(%q) printed %q, want %q", tt.src, got, tt.want)
		}
	}
}

func normalizeSpaces(s string) string { return strings.Join(strings.Fields(s), " ") }

func TestParseWhileAssertSkipReturn(t *testing.T) {
	src := `proc p(int n) {
		i = 0;
		while (i < n) {
			i = i + 1;
			if (i == 7) { return; }
		}
		assert i >= 0;
		skip;
	}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body := prog.Procs[0].Body.Stmts
	if len(body) != 4 {
		t.Fatalf("body statements = %d, want 4", len(body))
	}
	w, ok := body[1].(*ast.While)
	if !ok {
		t.Fatalf("statement 1 is %T, want *ast.While", body[1])
	}
	if len(w.Body.Stmts) != 2 {
		t.Fatalf("while body = %d stmts, want 2", len(w.Body.Stmts))
	}
	if _, ok := body[2].(*ast.Assert); !ok {
		t.Errorf("statement 2 is %T, want *ast.Assert", body[2])
	}
	if _, ok := body[3].(*ast.Skip); !ok {
		t.Errorf("statement 3 is %T, want *ast.Skip", body[3])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"proc p( { }",                            // malformed params
		"proc p() { x = ; }",                     // missing expression
		"proc p() { if x { } }",                  // missing parens
		"proc p() { x = 1 }",                     // missing semicolon
		"int g;",                                 // global without initializer
		"proc p() { y 3; }",                      // not a statement
		"proc p() { x = 99999999999999999999; }", // overflow literal
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error, got none", src)
		}
	}
}

func TestParseErrorRecovery(t *testing.T) {
	// Two independent errors should both be reported.
	src := "proc p() { x = ; y = ; }"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("expected errors")
	}
	if n := strings.Count(err.Error(), "expected expression"); n < 2 {
		t.Errorf("want at least 2 'expected expression' errors, got %d in %v", n, err)
	}
}

func TestParseProcedureHelper(t *testing.T) {
	_, pr, err := ParseProcedure(fig2Source, "update")
	if err != nil {
		t.Fatalf("ParseProcedure: %v", err)
	}
	if pr.Name != "update" {
		t.Errorf("name = %q, want update", pr.Name)
	}
	if _, _, err := ParseProcedure(fig2Source, "missing"); err == nil {
		t.Error("expected error for missing procedure")
	}
	if _, pr2, err := ParseProcedure(fig2Source, ""); err != nil || pr2.Name != "update" {
		t.Errorf("ParseProcedure with empty name = %v, %v; want update", pr2, err)
	}
}

func TestParseLinePositionsForCFGNodes(t *testing.T) {
	// Line numbers drive the CFG node labels that DiSE reports; verify the
	// statements carry the expected lines.
	prog, err := Parse(fig2Source)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	pr := prog.Proc("update")
	first := pr.Body.Stmts[0].(*ast.If)
	if first.Pos().Line != 6 {
		t.Errorf("first if line = %d, want 6", first.Pos().Line)
	}
	thenAssign := first.Then.Stmts[0].(*ast.Assign)
	if thenAssign.Pos().Line != 7 {
		t.Errorf("then-assign line = %d, want 7", thenAssign.Pos().Line)
	}
}

func TestCloneIndependence(t *testing.T) {
	prog, err := Parse(fig2Source)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	clone := ast.CloneProgram(prog)
	// Mutate the clone and make sure the original is untouched.
	clone.Procs[0].Body.Stmts[0].(*ast.If).Cond = &ast.BoolLit{Value: true}
	orig := prog.Procs[0].Body.Stmts[0].(*ast.If).Cond
	if _, ok := orig.(*ast.Binary); !ok {
		t.Error("mutating clone changed original condition")
	}
	if ast.Pretty(clone) == ast.Pretty(prog) {
		t.Error("clone mutation did not take effect")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on invalid source did not panic")
		}
	}()
	MustParse("proc p( {")
}

// TestNestingLimit pins the recursion bound: for each construct that enters
// a nesting level, a program nested exactly maxNesting levels deep (the
// procedure body counts as one) parses, and one level more gives exactly
// one error.
func TestNestingLimit(t *testing.T) {
	constructs := []struct {
		name string
		src  func(levels int) string // a program nested levels deep
	}{
		{"parentheses", func(n int) string {
			return "proc p() { a = " + strings.Repeat("(", n-1) + "1" + strings.Repeat(")", n-1) + "; }"
		}},
		{"not", func(n int) string {
			return "proc p() { b = " + strings.Repeat("!", n-1) + "true; }"
		}},
		{"unary minus", func(n int) string {
			return "proc p(int x) { a = " + strings.Repeat("-", n-1) + "x; }"
		}},
		{"blocks", func(n int) string {
			return "proc p() " + strings.Repeat("{", n) + strings.Repeat("}", n)
		}},
		{"else-if chain", func(n int) string {
			// The body, n-2 ifs, and the innermost then-block.
			return "proc p(int x) { if (x > 0) { skip; }" + strings.Repeat(" else if (x > 0) { skip; }", n-3) + " }"
		}},
	}
	for _, c := range constructs {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.src(maxNesting)); err != nil {
				t.Fatalf("%d levels: %v", maxNesting, err)
			}
			_, err := Parse(c.src(maxNesting + 1))
			if err == nil {
				t.Fatalf("%d levels parsed", maxNesting+1)
			}
			if msg := err.Error(); strings.Count(msg, "\n") != 0 || !strings.HasSuffix(msg, ": nesting deeper than 10000 levels") {
				t.Errorf("%d levels: want exactly one nesting error, got %q", maxNesting+1, msg)
			}
		})
	}
}
