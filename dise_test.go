package dise

import (
	"context"
	"strings"
	"testing"
)

// The motivating example of the paper (Fig. 2) as base/modified sources.
const baseUpdate = `
int AltPress = 0;
int Meter = 2;

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

var modUpdate = strings.Replace(baseUpdate, "PedalPos == 0", "PedalPos <= 0", 1)

func TestAnalyzeMotivatingExample(t *testing.T) {
	res, err := NewAnalyzer().Analyze(context.Background(),
		Request{BaseSrc: baseUpdate, ModSrc: modUpdate, Proc: "update"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 7 {
		t.Fatalf("affected path conditions = %d, want 7 (paper §2.2)", len(res.Paths))
	}
	if res.ChangedNodes != 1 {
		t.Errorf("changed nodes = %d, want 1", res.ChangedNodes)
	}
	if len(res.AffectedConditionalLines) != 4 {
		t.Errorf("ACN lines = %v, want 4 entries", res.AffectedConditionalLines)
	}
	if len(res.AffectedWriteLines) != 7 {
		t.Errorf("AWN lines = %v, want 7 entries", res.AffectedWriteLines)
	}
	if res.Stats.StatesExplored == 0 || res.Stats.SolverCalls == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	for _, pc := range res.PathConditions() {
		if !strings.Contains(pc, "PedalPos") {
			t.Errorf("path condition %q should mention PedalPos", pc)
		}
	}
}

func TestExecuteMotivatingExample(t *testing.T) {
	sum, err := NewAnalyzer().Execute(context.Background(), modUpdate, "update")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Paths) != 21 {
		t.Fatalf("full path conditions = %d, want 21 (paper §2.2)", len(sum.Paths))
	}
	tests := sum.Tests()
	if len(tests) == 0 {
		t.Fatal("no tests generated")
	}
	for _, tc := range tests {
		if !strings.HasPrefix(tc.Call, "update(") {
			t.Errorf("test call %q malformed", tc.Call)
		}
	}
}

func TestFullRangeDomainOption(t *testing.T) {
	a := NewAnalyzer(WithIntDomain(-1_000_000, 1_000_000))
	sum, err := a.Execute(context.Background(), modUpdate, "update")
	if err != nil {
		t.Fatal(err)
	}
	// Over a full-range domain the PedalCmd == 2 branch becomes feasible in
	// every arm of the first conditional: 24 paths instead of 21.
	if len(sum.Paths) != 24 {
		t.Fatalf("full-range path conditions = %d, want 24", len(sum.Paths))
	}
}

func TestSelectAugmentWorkflow(t *testing.T) {
	a, ctx := NewAnalyzer(), context.Background()
	baseSum, err := a.Execute(ctx, baseUpdate, "update")
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Analyze(ctx, Request{BaseSrc: baseUpdate, ModSrc: modUpdate, Proc: "update"})
	if err != nil {
		t.Fatal(err)
	}
	diseTests, err := res.Tests()
	if err != nil {
		t.Fatal(err)
	}
	sel := SelectAugment(baseSum.Tests(), diseTests)
	if len(sel.Selected)+len(sel.Added) != len(diseTests) {
		t.Errorf("selection %d+%d != %d tests", len(sel.Selected), len(sel.Added), len(diseTests))
	}
}

func TestExecutionTreeFig1(t *testing.T) {
	src := `
int y = 0;
proc testX(int x) {
  if (x > 0) {
    y = y + x;
  } else {
    y = y - x;
  }
}
`
	tree, err := NewAnalyzer().ExecutionTree(context.Background(), src, "testX")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PC: true", "PC: X > 0", "PC: X <= 0", "Y + X", "Y - X"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestCFGDotOutputs(t *testing.T) {
	a := NewAnalyzer()
	dot, err := a.CFGDot(modUpdate, "update")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph cfg") || !strings.Contains(dot, "diamond") {
		t.Errorf("CFG dot output malformed:\n%s", dot)
	}
	affected, err := a.AffectedCFGDot(context.Background(), baseUpdate, modUpdate, "update")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(affected, "lightcoral") || !strings.Contains(affected, "lightblue") {
		t.Error("affected CFG dot must highlight ACN and AWN nodes")
	}
}

func TestParseProgramErrors(t *testing.T) {
	if _, err := ParseProgram("proc p( {"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ParseProgram("proc p() { x = y; }"); err == nil {
		t.Error("expected type error (undefined variable)")
	}
	a, ctx := NewAnalyzer(), context.Background()
	if _, err := a.Analyze(ctx, Request{BaseSrc: "proc a() { skip; }", ModSrc: "proc a() { skip; }", Proc: "zzz"}); err == nil {
		t.Error("expected missing-procedure error")
	}
	if _, err := a.Execute(ctx, "proc a() { skip; }", "zzz"); err == nil {
		t.Error("expected missing-procedure error")
	}
	if _, _, err := a.EvaluationTables(ctx, "nope"); err == nil {
		t.Error("expected unknown-artifact error")
	}
}

func TestProgramAccessors(t *testing.T) {
	p, err := ParseProgram(baseUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Procedures(); len(got) != 1 || got[0] != "update" {
		t.Errorf("Procedures = %v", got)
	}
	if !strings.Contains(p.Pretty(), "proc update(") {
		t.Error("Pretty output malformed")
	}
}

func TestEvaluationArtifactNames(t *testing.T) {
	names := EvaluationArtifacts()
	want := map[string]bool{"ASW": true, "WBS": true, "OAE": true}
	if len(names) != 3 {
		t.Fatalf("artifacts = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected artifact %q", n)
		}
	}
}

func TestEvaluationTablesWBS(t *testing.T) {
	t2, t3, err := NewAnalyzer().EvaluationTables(context.Background(), "WBS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2, "Table 2 — WBS") || !strings.Contains(t3, "Table 3 — WBS") {
		t.Error("table headers missing")
	}
	if !strings.Contains(t2, "v16") {
		t.Error("table 2 should include all 16 versions")
	}
}

func TestAssertViolationSurfacesInAPI(t *testing.T) {
	base := `
proc p(int a) {
  if (a > 100) {
    x = 100;
  } else {
    x = a;
  }
  assert x <= 100;
}`
	mod := strings.Replace(base, "x = 100;", "x = a;", 1)
	res, err := NewAnalyzer().Analyze(context.Background(), Request{BaseSrc: base, ModSrc: mod, Proc: "p"})
	if err != nil {
		t.Fatal(err)
	}
	violated := 0
	for _, p := range res.Paths {
		if p.AssertViolated {
			violated++
		}
	}
	if violated == 0 {
		t.Error("assertion violation introduced by the change must surface")
	}
}
