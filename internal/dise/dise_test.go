package dise

import (
	"reflect"
	"strings"
	"testing"

	"dise/internal/cfg"
	"dise/internal/diff"
	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/symexec"
)

// The motivating example of the paper (Fig. 2). In the base version the
// first conditional is "PedalPos == 0"; the modified version has
// "PedalPos <= 0". Line numbers (this string): first cond line 6, writes at
// 7, 9, 11, join write at 13, BSwitch block 14–17, last block 19–24.
const fig2BaseSource = `
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

const fig2ModSource = `
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

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func analyze(t *testing.T, baseSrc, modSrc, proc string) *Result {
	t.Helper()
	res, err := Analyze(mustParse(t, baseSrc), mustParse(t, modSrc), proc, symexec.Config{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// TestFig5bAffectedSets reproduces the affected-set computation of the
// paper's Fig. 5(b): final ACN = {n0, n2, n10, n12} and AWN = {n1, n3, n4,
// n5, n11, n13, n14}, identified here by source line.
func TestFig5bAffectedSets(t *testing.T) {
	res := analyze(t, fig2BaseSource, fig2ModSource, "update")
	a := res.Affected
	// Paper nodes → our lines: n0=6, n2=8, n10=19, n12=21.
	if got, want := a.ACNLines(), []int{6, 8, 19, 21}; !reflect.DeepEqual(got, want) {
		t.Errorf("ACN lines = %v, want %v", got, want)
	}
	// n1=7, n3=9, n4=11, n5=13, n11=20, n13=22, n14=24.
	if got, want := a.AWNLines(), []int{7, 9, 11, 13, 20, 22, 24}; !reflect.DeepEqual(got, want) {
		t.Errorf("AWN lines = %v, want %v", got, want)
	}
	if a.ChangedNodes != 1 {
		t.Errorf("changed nodes = %d, want 1", a.ChangedNodes)
	}
	if a.Size() != 11 {
		t.Errorf("affected size = %d, want 11", a.Size())
	}
}

// TestAblationNoEq4 shows rule Eq. (4) is what pulls in the write at the
// paper's n5 (our line 13): without it the join write is missed.
func TestAblationNoEq4(t *testing.T) {
	base, mod := mustParse(t, fig2BaseSource), mustParse(t, fig2ModSource)
	res, err := AnalyzeOpts(base, mod, "update", symexec.Config{}, Options{SkipEq4: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Affected.AWNLines(), []int{7, 9, 11, 20, 22, 24}; !reflect.DeepEqual(got, want) {
		t.Errorf("AWN lines without Eq4 = %v, want %v (line 13 lost)", got, want)
	}
}

// TestMotivating7vs21 reproduces the headline numbers of §2.2: full symbolic
// execution generates 21 path conditions for the modified update; DiSE
// generates 7.
func TestMotivating7vs21(t *testing.T) {
	res := analyze(t, fig2BaseSource, fig2ModSource, "update")
	if got := len(res.Summary.Paths); got != 7 {
		for _, p := range res.Summary.Paths {
			t.Logf("DiSE PC: %s", p.PCString)
		}
		t.Fatalf("DiSE path conditions = %d, want 7 (paper §2.2)", got)
	}
	full, err := symexec.New(mustParse(t, fig2ModSource), "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fullSummary := full.RunFull()
	if got := len(fullSummary.Paths); got != 21 {
		t.Fatalf("full path conditions = %d, want 21", got)
	}
	// DiSE must explore strictly fewer states than full symbolic execution.
	if res.Summary.Stats.StatesExplored >= fullSummary.Stats.StatesExplored {
		t.Errorf("DiSE states %d not fewer than full %d",
			res.Summary.Stats.StatesExplored, fullSummary.Stats.StatesExplored)
	}
}

// TestTable1Pruning verifies the pruning behavior narrated in §2.2 and
// Table 1: paths that differ from an explored path only in the sequence of
// unaffected nodes (the BSwitch block) are pruned, and explored affected
// nodes are reset when a new affected sequence becomes reachable.
func TestTable1Pruning(t *testing.T) {
	res := analyze(t, fig2BaseSource, fig2ModSource, "update")
	// Exactly one of the 7 paths goes through each affected sequence; the
	// BSwitch block appears in only one variant per sequence. Count distinct
	// BSwitch outcomes across DiSE paths: pruning keeps just the first
	// feasible one per affected sequence.
	bswitchLines := map[int]bool{14: true, 16: true}
	g := res.ModGraph
	for _, p := range res.Summary.Paths {
		condsSeen := 0
		for _, id := range p.Trace() {
			if bswitchLines[g.Nodes[id].Line] {
				condsSeen++
			}
		}
		// Every emitted path passes through the BSwitch block at most once
		// per conditional (no path explores multiple BSwitch variants).
		if condsSeen > 2 {
			t.Errorf("path %v visits the BSwitch block more than once", p.Trace())
		}
	}
	if res.Prune.PrunedStates == 0 {
		t.Error("expected pruned states")
	}
	if res.Prune.Resets == 0 {
		t.Error("expected explored-set resets (Table 1 line 11)")
	}
}

// fullAffectedSequences projects full symbolic execution paths onto the
// affected sets, keeping non-empty sequences (DiSE's output criterion: a
// path is reported when it covers at least one affected node).
func fullAffectedSequences(t *testing.T, modSrc, proc string, a *Affected, config symexec.Config) map[string]bool {
	t.Helper()
	engine, err := symexec.New(mustParse(t, modSrc), proc, config)
	if err != nil {
		t.Fatal(err)
	}
	full := engine.RunFull()
	out := map[string]bool{}
	for _, p := range full.Paths {
		seq := a.AffectedSequence(p.Trace())
		if len(seq) > 0 {
			out[SequenceKey(seq)] = true
		}
	}
	return out
}

// TestTheorem310OnMotivatingExample checks both directions of Theorem 3.10
// on the motivating example: every affected sequence of a feasible full
// path is covered by exactly one DiSE path, and DiSE paths have pairwise
// distinct affected sequences.
func TestTheorem310OnMotivatingExample(t *testing.T) {
	res := analyze(t, fig2BaseSource, fig2ModSource, "update")
	want := fullAffectedSequences(t, fig2ModSource, "update", res.Affected, symexec.Config{})
	got := map[string]bool{}
	for _, p := range res.Summary.Paths {
		key := SequenceKey(res.Affected.AffectedSequence(p.Trace()))
		if got[key] {
			t.Errorf("duplicate affected sequence %s (violates Case II)", key)
		}
		got[key] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("affected sequences differ:\nDiSE: %v\nfull: %v", got, want)
	}
}

func TestIdenticalVersionsExploreNothing(t *testing.T) {
	res := analyze(t, fig2ModSource, fig2ModSource, "update")
	if res.Affected.Size() != 0 {
		t.Errorf("affected size = %d, want 0", res.Affected.Size())
	}
	if len(res.Summary.Paths) != 0 {
		t.Errorf("path conditions = %d, want 0", len(res.Summary.Paths))
	}
	if res.Summary.Stats.StatesExplored > 3 {
		t.Errorf("states explored = %d, want ~2 (immediate prune)", res.Summary.Stats.StatesExplored)
	}
}

// TestChangeWithNoConditionalInfluence mirrors the ASW rows with affected
// nodes but zero path conditions: the changed write feeds no conditional.
func TestChangeWithNoConditionalInfluence(t *testing.T) {
	base := `
proc p(int a, int b) {
  out = a;
  if (b > 0) {
    out2 = 1;
  } else {
    out2 = 2;
  }
}`
	mod := `
proc p(int a, int b) {
  out = a + 1;
  if (b > 0) {
    out2 = 1;
  } else {
    out2 = 2;
  }
}`
	res := analyze(t, base, mod, "p")
	if res.Affected.AWN.Count() == 0 {
		t.Fatal("the changed write must be affected")
	}
	if res.Affected.ACN.Count() != 0 {
		t.Errorf("no conditional should be affected, got lines %v", res.Affected.ACNLines())
	}
	// The paper's WBS v4 row: a changed write with no affected conditionals
	// still yields one path condition — the single path explored to cover
	// the write (its PC carries no affected constraints).
	if len(res.Summary.Paths) != 1 {
		t.Fatalf("path conditions = %d, want 1 (one path covers the changed write)", len(res.Summary.Paths))
	}
	if got := res.Summary.Paths[0].PCString; got != "true" {
		t.Errorf("PC = %q, want true (write covered before any branching)", got)
	}
	// The branching after the write is pruned: strictly fewer states than
	// full symbolic execution.
	full, err := symexec.New(mustParse(t, mod), "p", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs := full.RunFull()
	if res.Summary.Stats.StatesExplored >= fs.Stats.StatesExplored {
		t.Errorf("DiSE states %d, full %d; want pruning", res.Summary.Stats.StatesExplored, fs.Stats.StatesExplored)
	}
}

// TestChangeAffectingAllPaths mirrors the WBS rows where DiSE generates the
// same number of path conditions as full symbolic execution: the change
// taints the variable feeding every conditional.
func TestChangeAffectingAllPaths(t *testing.T) {
	base := `
proc p(int a) {
  x = a;
  if (x > 0) {
    y = 1;
  } else {
    y = 2;
  }
  if (y > 0) {
    z = 1;
  } else {
    z = 2;
  }
}`
	mod := `
proc p(int a) {
  x = a + 1;
  if (x > 0) {
    y = 1;
  } else {
    y = 2;
  }
  if (y > 0) {
    z = 1;
  } else {
    z = 2;
  }
}`
	res := analyze(t, base, mod, "p")
	full, err := symexec.New(mustParse(t, mod), "p", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fullSummary := full.RunFull()
	if len(res.Summary.Paths) != len(fullSummary.Paths) {
		t.Errorf("DiSE paths = %d, full = %d; change taints everything so they must match",
			len(res.Summary.Paths), len(fullSummary.Paths))
	}
	// Both conditionals affected.
	if got, want := res.Affected.ACNLines(), []int{4, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("ACN lines = %v, want %v", got, want)
	}
}

// TestRemovedStatementAffectsViaBaseCFG exercises the removeNodes algorithm
// of Fig. 5(a): deleting a write makes downstream conditionals affected.
func TestRemovedStatementAffectsViaBaseCFG(t *testing.T) {
	base := `
proc p(int a) {
  x = a;
  x = x + 5;
  if (x > 10) {
    y = 1;
  } else {
    y = 2;
  }
}`
	mod := `
proc p(int a) {
  x = a;
  if (x > 10) {
    y = 1;
  } else {
    y = 2;
  }
}`
	res := analyze(t, base, mod, "p")
	// The removed write "x = x + 5" defines x, used at the conditional: the
	// conditional in the modified version must be affected.
	if got, want := res.Affected.ACNLines(), []int{4}; !reflect.DeepEqual(got, want) {
		t.Errorf("ACN lines = %v, want %v", got, want)
	}
	if len(res.Summary.Paths) != 2 {
		t.Errorf("path conditions = %d, want 2 (both arms affected)", len(res.Summary.Paths))
	}
	if res.Affected.ChangedNodes != 1 {
		t.Errorf("changed nodes = %d, want 1 (the removed write)", res.Affected.ChangedNodes)
	}
}

// TestRemovedConditionalAffectsViaBaseCFG exercises removeNodes with a
// removed conditional: deleting a guard changes which writes execute, and
// the nodes that were control dependent on the removed guard (mapped
// through diffMap) seed the affected sets.
func TestRemovedConditionalAffectsViaBaseCFG(t *testing.T) {
	base := `
proc p(int a) {
  y = 0;
  if (a > 5) {
    y = 1;
  }
  if (y > 0) {
    out = 1;
  } else {
    out = 2;
  }
}`
	mod := `
proc p(int a) {
  y = 0;
  y = 1;
  if (y > 0) {
    out = 1;
  } else {
    out = 2;
  }
}`
	res := analyze(t, base, mod, "p")
	// The write y = 1 was control dependent on the removed guard in the
	// base version; its mod counterpart must be affected, and through it
	// the conditional on y.
	if res.Affected.AWN.Count() == 0 {
		t.Fatal("the formerly guarded write must be affected")
	}
	if got, want := res.Affected.ACNLines(), []int{5}; !reflect.DeepEqual(got, want) {
		t.Errorf("ACN lines = %v, want %v (the y conditional)", got, want)
	}
	// In the modified version y is always 1, so only the out=1 arm is
	// feasible: exactly one affected path.
	if len(res.Summary.Paths) != 1 {
		t.Errorf("paths = %d, want 1", len(res.Summary.Paths))
	}
}

// TestAddedStatement checks added nodes seed the affected sets.
func TestAddedStatement(t *testing.T) {
	base := `
proc p(int a) {
  if (a > 10) {
    y = 1;
  } else {
    y = 2;
  }
  out = y;
}`
	mod := `
proc p(int a) {
  if (a > 10) {
    y = 1;
  } else {
    y = 2;
  }
  y = y * 2;
  out = y;
}`
	res := analyze(t, base, mod, "p")
	if res.Affected.AWN.Count() == 0 {
		t.Fatal("added write must be affected")
	}
	// The added write uses y, so Eq. (4) also marks the two y-defining
	// writes in the branch arms: two affected sequences (one per arm), two
	// explored paths.
	if len(res.Summary.Paths) != 2 {
		t.Errorf("paths = %d, want 2", len(res.Summary.Paths))
	}
}

// TestAssertViolationDetectedByDiSE checks §5.1: a change that makes an
// assertion violable yields an affected error path.
func TestAssertViolationDetectedByDiSE(t *testing.T) {
	base := `
proc p(int a) {
  if (a > 100) {
    x = 100;
  } else {
    x = a;
  }
  assert x <= 100;
}`
	mod := `
proc p(int a) {
  if (a > 100) {
    x = a;
  } else {
    x = a;
  }
  assert x <= 100;
}`
	res := analyze(t, base, mod, "p")
	var errPaths int
	for _, p := range res.Summary.Paths {
		if p.Err {
			errPaths++
		}
	}
	if errPaths == 0 {
		t.Error("DiSE must find the assertion violation introduced by the change")
	}
}

// TestLoopCheckLoops exercises the CheckLoops/SCC machinery: a change inside
// a loop body must let DiSE cover affected sequences across iterations.
func TestLoopCheckLoops(t *testing.T) {
	base := `
proc p(int n) {
  i = 0;
  acc = 0;
  while (i < n) {
    acc = acc + 1;
    i = i + 1;
  }
  if (acc > 2) {
    big = 1;
  } else {
    big = 0;
  }
}`
	mod := `
proc p(int n) {
  i = 0;
  acc = 0;
  while (i < n) {
    acc = acc + 2;
    i = i + 1;
  }
  if (acc > 2) {
    big = 1;
  } else {
    big = 0;
  }
}`
	config := symexec.Config{DepthBound: 40}
	res, err := Analyze(mustParse(t, base), mustParse(t, mod), "p", config)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summary.Paths) == 0 {
		t.Fatal("DiSE found no affected paths through the loop")
	}
	// For programs with loops the paper's guarantees are best-effort: the
	// evaluation artifacts are loop-free (§4.1) and Theorem 3.10's proof
	// assumes explorability is path-independent, which loop unrolling under
	// a depth bound breaks. We check the sound direction: every DiSE
	// sequence is a real full-SE sequence, sequences are pairwise distinct,
	// and the loop body's changed write appears repeated (CheckLoops let the
	// search cross iterations).
	want := fullAffectedSequences(t, mod, "p", res.Affected, config)
	got := map[string]bool{}
	maxLen := 0
	for _, p := range res.Summary.Paths {
		seq := res.Affected.AffectedSequence(p.Trace())
		key := SequenceKey(seq)
		if got[key] {
			t.Errorf("duplicate affected sequence %s", key)
		}
		got[key] = true
		// A DiSE path may be pruned right after its last affected node, so
		// its sequence can be a prefix of the corresponding full sequence.
		matched := false
		for fullKey := range want {
			if strings.HasPrefix(fullKey, key) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("DiSE sequence %s is not a prefix of any full-SE sequence", key)
		}
		if len(seq) > maxLen {
			maxLen = len(seq)
		}
	}
	if maxLen < 3 {
		t.Errorf("longest affected sequence has %d nodes; CheckLoops should carry the search across iterations", maxLen)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	base := mustParse(t, "proc a(int x) { y = x; }")
	mod := mustParse(t, "proc b(int x) { y = x; }")
	if _, err := Analyze(base, mod, "b", symexec.Config{}); err == nil {
		t.Error("expected error: procedure missing from base")
	}
	if _, err := Analyze(base, base, "zzz", symexec.Config{}); err == nil {
		t.Error("expected error: procedure missing entirely")
	}
}

func TestLiftMarksMapsNodes(t *testing.T) {
	baseProg := mustParse(t, fig2BaseSource)
	modProg := mustParse(t, fig2ModSource)
	baseProc := baseProg.Proc("update")
	modProc := modProg.Proc("update")
	d := diff.Procedures(baseProc, modProc)
	gBase, gMod := cfg.Build(baseProc), cfg.Build(modProc)
	nm := LiftMarks(d, gBase, gMod)
	// Every statement node of the base CFG must be marked by the diff, carry
	// that mark and (since nothing was removed) be mapped.
	for _, n := range gBase.StatementNodes() {
		if _, ok := d.BaseMarks[n.Stmt]; !ok {
			t.Errorf("base node %v unmarked", n)
		}
		if nm.Base[n.ID] != d.BaseMarks[n.Stmt] {
			t.Errorf("base node %v marked %v, its statement %v", n, nm.Base[n.ID], d.BaseMarks[n.Stmt])
		}
		if nm.DiffMap[n.ID] < 0 {
			t.Errorf("base node %v unmapped", n)
		}
	}
	// The changed conditional maps to the changed conditional.
	bn := gBase.NodeAtLine(6)
	mn := gMod.NodeAtLine(6)
	if int(nm.DiffMap[bn.ID]) != mn.ID {
		t.Error("changed conditional not mapped to its counterpart")
	}
	if nm.Base[bn.ID] != diff.Changed || nm.Mod[mn.ID] != diff.Changed {
		t.Error("changed conditional must be marked changed on both sides")
	}
}

func TestSequenceKey(t *testing.T) {
	if SequenceKey(nil) != "" {
		t.Error("empty sequence key must be empty")
	}
	if SequenceKey([]int{1, 2}) == SequenceKey([]int{12}) {
		t.Error("sequence keys must be unambiguous")
	}
}
