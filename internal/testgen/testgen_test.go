package testgen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dise/internal/dise"
	"dise/internal/lang/parser"
	"dise/internal/sym"
	"dise/internal/symexec"
)

const testXSource = `
int y = 0;
proc testX(int x) {
  if (x > 0) {
    y = y + x;
  } else {
    y = y - x;
  }
}
`

func engineFor(t *testing.T, src, proc string) *symexec.Engine {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := symexec.New(prog, proc, symexec.Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return e
}

func TestGenerateFromTestX(t *testing.T) {
	e := engineFor(t, testXSource, "testX")
	summary := e.RunFull()
	g := NewGenerator(e)
	tests := g.Generate(summary)
	if len(tests) != 2 {
		t.Fatalf("tests = %d, want 2", len(tests))
	}
	// Deterministic smallest models: x > 0 → 1; x <= 0 → 0.
	if tests[0].Call != "testX(1)" {
		t.Errorf("test 0 = %q, want testX(1)", tests[0].Call)
	}
	if tests[1].Call != "testX(0)" {
		t.Errorf("test 1 = %q, want testX(0)", tests[1].Call)
	}
	// Each call renders its path's witness.
	for i, tc := range tests {
		p := summary.Paths[i]
		x, ok := p.Witness.Value("X")
		if want := fmt.Sprintf("testX(%d)", x); !ok || tc.Call != want || tc.PathCondition != p.PCString {
			t.Errorf("test %d = %+v, want %s from witness %v of %q", i, tc, want, p.Witness, p.PCString)
		}
	}
}

func TestGenerateDeduplicatesPartialStates(t *testing.T) {
	// Paths split on a symbolic global; the method argument models coincide,
	// so the paper's partial-state rendering dedups them.
	src := `
int g = 0;
proc p(int x) {
  if (g > 5) {
    y = 1;
  } else {
    y = 2;
  }
}
`
	e := engineFor(t, src, "p")
	summary := e.RunFull()
	if len(summary.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(summary.Paths))
	}
	g := NewGenerator(e)
	tests := g.Generate(summary)
	if len(tests) != 1 {
		t.Fatalf("tests = %d, want 1 (both PCs constrain only the global)", len(tests))
	}
	if tests[0].Call != "p(0)" {
		t.Errorf("call = %q, want p(0)", tests[0].Call)
	}
}

func TestGenerateBoolRendering(t *testing.T) {
	src := `proc p(bool flag, int x) {
  if (flag) {
    y = x;
  } else {
    y = 0;
  }
}`
	e := engineFor(t, src, "p")
	summary := e.RunFull()
	g := NewGenerator(e)
	tests := g.Generate(summary)
	if len(tests) != 2 {
		t.Fatalf("tests = %d, want 2", len(tests))
	}
	if tests[0].Call != "p(true, 0)" || tests[1].Call != "p(false, 0)" {
		t.Errorf("calls = %v, want p(true, 0) and p(false, 0)", Calls(tests))
	}
}

func TestModelsSatisfyPathConditions(t *testing.T) {
	// Every path's witness, the full model its test renders, must satisfy
	// the path condition it came from.
	e := engineFor(t, testXSource, "testX")
	summary := e.RunFull()
	for _, p := range summary.Paths {
		if p.Witness == nil {
			t.Fatalf("path %q has no witness", p.PCString)
		}
		for _, c := range p.PC() {
			v, err := sym.Eval(c, p.Witness)
			if err != nil || v == 0 {
				t.Errorf("witness %v violates %s (err=%v)", p.Witness, c, err)
			}
		}
	}
}

func TestSelectAugment(t *testing.T) {
	base := []TestCase{{Call: "p(0)"}, {Call: "p(1)"}, {Call: "p(5)"}}
	diseT := []TestCase{{Call: "p(1)"}, {Call: "p(7)"}, {Call: "p(0)"}}
	sel := SelectAugment(base, diseT)
	if got := Calls(sel.Selected); !reflect.DeepEqual(got, []string{"p(0)", "p(1)"}) {
		t.Errorf("selected = %v, want [p(0) p(1)]", got)
	}
	if got := Calls(sel.Added); !reflect.DeepEqual(got, []string{"p(7)"}) {
		t.Errorf("added = %v, want [p(7)]", got)
	}
	if sel.Total() != 3 {
		t.Errorf("total = %d, want 3", sel.Total())
	}
}

func TestSelectAugmentEmptyCases(t *testing.T) {
	sel := SelectAugment(nil, nil)
	if sel.Total() != 0 {
		t.Error("empty selection must be empty")
	}
	sel = SelectAugment(nil, []TestCase{{Call: "p(1)"}})
	if len(sel.Selected) != 0 || len(sel.Added) != 1 {
		t.Error("all tests must be added when base suite is empty")
	}
}

// TestEndToEndSelectionOnMotivatingExample mirrors the paper's workflow:
// full SE on the base version produces the existing suite; DiSE on the
// modified version produces the affected tests; selection + augmentation
// covers all affected branches.
func TestEndToEndSelectionOnMotivatingExample(t *testing.T) {
	baseSrc := strings.Replace(fig2Mod, "PedalPos <= 0", "PedalPos == 0", 1)
	baseProg, err := parser.Parse(baseSrc)
	if err != nil {
		t.Fatal(err)
	}
	modProg, err := parser.Parse(fig2Mod)
	if err != nil {
		t.Fatal(err)
	}

	// Existing suite: full symbolic execution of the base version.
	baseEngine, err := symexec.New(baseProg, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseSuite := NewGenerator(baseEngine).Generate(baseEngine.RunFull())
	if len(baseSuite) == 0 {
		t.Fatal("base suite is empty")
	}

	// DiSE on the modified version.
	res, err := dise.Analyze(baseProg, modProg, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	modEngine, err := symexec.New(modProg, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	diseTests := NewGenerator(modEngine).Generate(res.Summary)
	if len(diseTests) == 0 {
		t.Fatal("DiSE generated no tests")
	}
	sel := SelectAugment(baseSuite, diseTests)
	if sel.Total() != len(diseTests) {
		t.Errorf("selection total %d != DiSE tests %d", sel.Total(), len(diseTests))
	}
	// The change (== to <=) keeps PedalPos == 0 behaviors shared, so at
	// least one test should be re-usable and at least the suite must not be
	// fully re-usable or fully new in this example... verify both sets are
	// consistent with string membership.
	base := map[string]bool{}
	for _, tc := range baseSuite {
		base[tc.Call] = true
	}
	for _, tc := range sel.Selected {
		if !base[tc.Call] {
			t.Errorf("selected test %q not in base suite", tc.Call)
		}
	}
	for _, tc := range sel.Added {
		if base[tc.Call] {
			t.Errorf("added test %q already in base suite", tc.Call)
		}
	}
}

const fig2Mod = `
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
