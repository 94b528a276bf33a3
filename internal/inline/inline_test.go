package inline

import (
	"strings"
	"testing"

	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/lang/types"
	"dise/internal/symexec"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestInlineSimpleCall(t *testing.T) {
	src := `
int Out = 0;

proc double(int v) {
  Out = v + v;
}

proc main(int x) {
  double(x + 1);
}
`
	prog := mustParse(t, src)
	flat, err := Program(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Procs) != 1 || flat.Procs[0].Name != "main" {
		t.Fatalf("inlined program shape wrong: %v", flat.Procs)
	}
	if _, err := types.Check(flat); err != nil {
		t.Fatalf("inlined program does not type check: %v\n%s", err, ast.Pretty(flat))
	}
	// No calls remain.
	ast.Walk(flat.Procs[0].Body.Stmts, func(s ast.Stmt) {
		if _, ok := s.(*ast.Call); ok {
			t.Error("call remained after inlining")
		}
	})
	printed := ast.Pretty(flat)
	// The parameter binding and the renamed body must be present.
	if !strings.Contains(printed, "double_1_v = x + 1;") {
		t.Errorf("missing parameter binding:\n%s", printed)
	}
	if !strings.Contains(printed, "Out = double_1_v + double_1_v;") {
		t.Errorf("missing renamed body (global untouched):\n%s", printed)
	}
}

// TestInlineBehaviorEquivalence checks the inlined program computes the
// same symbolic summaries as a hand-inlined equivalent.
func TestInlineBehaviorEquivalence(t *testing.T) {
	multi := `
int Acc = 0;

proc step(int amount, bool enable) {
  if (enable) {
    Acc = Acc + amount;
  } else {
    Acc = Acc - amount;
  }
}

proc run(int a, bool e) {
  step(a, e);
  step(a + 1, e);
}
`
	prog := mustParse(t, multi)
	flat, err := Program(prog, "run")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := symexec.New(flat, "run", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	summary := engine.RunFull()
	// Two calls, each branching on the same symbolic enable: E && E and
	// !E && !E collapse, so exactly 2 feasible paths.
	if len(summary.Paths) != 2 {
		t.Fatalf("paths = %d, want 2\n%s", len(summary.Paths), ast.Pretty(flat))
	}
	// Path 1 (enable): Acc = Acc + a + (a+1) = Acc + 2a + 1... check the
	// final symbolic value mentions Acc and A.
	got := summary.Paths[0].Env.Map()["Acc"].String()
	if !strings.Contains(got, "Acc") || !strings.Contains(got, "A") {
		t.Errorf("final Acc = %q, want expression over Acc and A", got)
	}
}

func TestInlineNestedCalls(t *testing.T) {
	src := `
int R = 0;

proc leaf(int v) {
  R = R + v;
}

proc mid(int v) {
  leaf(v);
  leaf(v + 1);
}

proc top(int x) {
  mid(x);
}
`
	flat, err := Program(mustParse(t, src), "top")
	if err != nil {
		t.Fatal(err)
	}
	printed := ast.Pretty(flat)
	// Three inline instances: mid_1, leaf_2, leaf_3.
	for _, want := range []string{"mid_1_v = x;", "leaf_2_v = mid_1_v;", "leaf_3_v = mid_1_v + 1;"} {
		if !strings.Contains(printed, want) {
			t.Errorf("missing %q in:\n%s", want, printed)
		}
	}
	if _, err := types.Check(flat); err != nil {
		t.Fatalf("inlined program does not type check: %v", err)
	}
}

func TestInlineDiamondCallGraph(t *testing.T) {
	// f called twice from main: each instance gets fresh locals.
	src := `
int Sum = 0;

proc f(int v) {
  tmp = v * 2;
  Sum = Sum + tmp;
}

proc main(int a, int b) {
  f(a);
  f(b);
}
`
	flat, err := Program(mustParse(t, src), "main")
	if err != nil {
		t.Fatal(err)
	}
	printed := ast.Pretty(flat)
	if !strings.Contains(printed, "f_1_tmp") || !strings.Contains(printed, "f_2_tmp") {
		t.Errorf("locals not instance-renamed:\n%s", printed)
	}
	if _, err := types.Check(flat); err != nil {
		t.Fatal(err)
	}
}

func TestInlineCallInsideBranchesAndLoops(t *testing.T) {
	src := `
int Count = 0;

proc bump() {
  Count = Count + 1;
}

proc main(int n) {
  if (n > 0) {
    bump();
  }
  i = 0;
  while (i < 2) {
    bump();
    i = i + 1;
  }
}
`
	flat, err := Program(mustParse(t, src), "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := types.Check(flat); err != nil {
		t.Fatal(err)
	}
	engine, err := symexec.New(flat, "main", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	summary := engine.RunFull()
	if len(summary.Paths) != 2 {
		t.Fatalf("paths = %d, want 2 (n > 0 and n <= 0)", len(summary.Paths))
	}
	// On the n > 0 path, Count ends at Count + 3 (one branch bump, two
	// loop bumps).
	if got := summary.Paths[0].Env.Map()["Count"].String(); got != "Count + 3" {
		t.Errorf("final Count = %q, want Count + 3", got)
	}
}

func TestInlineErrors(t *testing.T) {
	// Unknown entry.
	if _, err := Program(mustParse(t, "proc a() { skip; }"), "zzz"); err == nil {
		t.Error("expected unknown-entry error")
	}
	// Callee with a return statement.
	src := `
proc early() {
  return;
}
proc main() {
  early();
}
`
	if _, err := Program(mustParse(t, src), "main"); err == nil || !strings.Contains(err.Error(), "return") {
		t.Errorf("expected single-exit error, got %v", err)
	}
}

func TestRecursionRejectedByTypeChecker(t *testing.T) {
	direct := `
proc loop(int n) {
  loop(n);
}
`
	if _, err := types.Check(mustParse(t, direct)); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("direct recursion must be rejected, got %v", err)
	}
	mutual := `
proc a(int n) {
  b(n);
}
proc b(int n) {
  a(n);
}
`
	if _, err := types.Check(mustParse(t, mutual)); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("mutual recursion must be rejected, got %v", err)
	}
}

func TestCallTypeChecking(t *testing.T) {
	bad := []struct{ name, src, want string }{
		{"undefined", "proc main() { ghost(); }", "undefined procedure"},
		{"arity", "proc f(int x) { y = x; } proc main() { f(); }", "0 arguments, want 1"},
		{"argtype", "proc f(int x) { y = x; } proc main(bool b) { f(b); }", "is bool, want int"},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			_, err := types.Check(mustParse(t, tt.src))
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("want error containing %q, got %v", tt.want, err)
			}
		})
	}
	ok := "proc f(int x, bool b) { y = x; } proc main(int v) { f(v + 1, true); }"
	if _, err := types.Check(mustParse(t, ok)); err != nil {
		t.Errorf("valid call rejected: %v", err)
	}
}

func TestInlineDeterministic(t *testing.T) {
	src := `
int G = 0;
proc f(int v) { G = G + v; }
proc main(int a) { f(a); f(a + 1); }
`
	flat1, err := Program(mustParse(t, src), "main")
	if err != nil {
		t.Fatal(err)
	}
	flat2, err := Program(mustParse(t, src), "main")
	if err != nil {
		t.Fatal(err)
	}
	if ast.Pretty(flat1) != ast.Pretty(flat2) {
		t.Error("inlining must be deterministic")
	}
}
