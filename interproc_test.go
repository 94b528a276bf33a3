package dise

import (
	"context"
	"strings"
	"testing"
)

const interprocBase = `
int Total = 0;
int Flag = 0;

proc add(int v) {
  Total = Total + v;
}

proc classify() {
  if (Total > 10) {
    Flag = 1;
  } else {
    Flag = 0;
  }
}

proc main(int a, int b) {
  add(a);
  add(b);
  classify();
}
`

func TestAnalyzeInterprocedural(t *testing.T) {
	// The change is inside add(): the contribution doubles.
	mod := strings.Replace(interprocBase, "Total = Total + v;", "Total = Total + v + v;", 1)
	res, err := NewAnalyzer().Analyze(context.Background(),
		Request{BaseSrc: interprocBase, ModSrc: mod, Proc: "main", Interprocedural: true})
	if err != nil {
		t.Fatal(err)
	}
	// The classify() conditional — in a different procedure than the change
	// — must be affected through the Total global.
	if len(res.AffectedConditionalLines) == 0 {
		t.Fatal("the callee change must affect the caller-side conditional")
	}
	if len(res.Paths) != 2 {
		t.Fatalf("affected path conditions = %d, want 2 (both classify arms)", len(res.Paths))
	}
	for _, pc := range res.PathConditions() {
		if !strings.Contains(pc, "Total") && !strings.Contains(pc, "A") {
			t.Errorf("path condition %q should involve the inlined dataflow", pc)
		}
	}
	// Tests solve end to end.
	tests, err := res.Tests()
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) == 0 {
		t.Error("no tests generated")
	}
}

func TestAnalyzeInterproceduralIdenticalVersions(t *testing.T) {
	res, err := NewAnalyzer().Analyze(context.Background(),
		Request{BaseSrc: interprocBase, ModSrc: interprocBase, Proc: "main", Interprocedural: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 0 || res.ChangedNodes != 0 {
		t.Errorf("identical versions: %d paths, %d changed nodes; want 0/0",
			len(res.Paths), res.ChangedNodes)
	}
}

func TestInlineProgramAPI(t *testing.T) {
	flat, err := InlineProgram(interprocBase, "main")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"add_1_v = a;", "add_2_v = b;", "Total > 10"} {
		if !strings.Contains(flat, want) {
			t.Errorf("inlined output missing %q:\n%s", want, flat)
		}
	}
	// The output reparses and executes.
	sum, err := NewAnalyzer().Execute(context.Background(), flat, "main")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Paths) != 2 {
		t.Errorf("inlined program paths = %d, want 2", len(sum.Paths))
	}
}

func TestInterproceduralErrors(t *testing.T) {
	a, ctx := NewAnalyzer(), context.Background()
	inter := func(base, mod, entry string) error {
		_, err := a.Analyze(ctx, Request{BaseSrc: base, ModSrc: mod, Proc: entry, Interprocedural: true})
		return err
	}
	if err := inter("proc a( {", interprocBase, "main"); err == nil {
		t.Error("expected base parse error")
	}
	if err := inter(interprocBase, interprocBase, "ghost"); err == nil {
		t.Error("expected unknown-entry error")
	}
	recursive := "proc main(int n) { main(n); }"
	if err := inter(recursive, recursive, "main"); err == nil {
		t.Error("expected recursion rejection")
	}
	if _, err := InlineProgram("proc f() { return; } proc main() { f(); }", "main"); err == nil {
		t.Error("expected single-exit rejection")
	}
}

func TestExecuteRejectsUninlinedCalls(t *testing.T) {
	if _, err := NewAnalyzer().Execute(context.Background(), interprocBase, "main"); err == nil ||
		!strings.Contains(err.Error(), "inline") {
		t.Errorf("Execute on a program with calls must point at inlining, got %v", err)
	}
}

func TestTransitiveWritesOption(t *testing.T) {
	base := `
proc p(int a) {
  x = a;
  y = x;
  if (y > 10) {
    out = 1;
  } else {
    out = 2;
  }
}`
	mod := strings.Replace(base, "x = a;", "x = a + 5;", 1)
	req := Request{BaseSrc: base, ModSrc: mod, Proc: "p"}
	plain, err := NewAnalyzer().Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	extended, err := NewAnalyzer(WithTransitiveWrites(true)).Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.AffectedConditionalLines) != 0 {
		t.Error("published rules must not see the write chain")
	}
	if len(extended.AffectedConditionalLines) != 1 {
		t.Errorf("TransitiveWrites must reach the conditional, ACN lines = %v",
			extended.AffectedConditionalLines)
	}
}
