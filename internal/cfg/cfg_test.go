package cfg

import (
	"reflect"
	"strings"
	"testing"

	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
)

// fig2Source is the motivating example (paper Fig. 2(a)) in the
// mini-language. Line numbers shift relative to the paper, so tests address
// nodes by source line of this string: the changed conditional
// "PedalPos <= 0" is on line 6.
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

func buildProc(t *testing.T, src, name string) *Graph {
	t.Helper()
	_, pr, err := parser.ParseProcedure(src, name)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Build(pr)
}

func fig2Graph(t *testing.T) *Graph { return buildProc(t, fig2Source, "update") }

func nodeAt(t *testing.T, g *Graph, line int) *Node {
	t.Helper()
	n := g.NodeAtLine(line)
	if n == nil {
		t.Fatalf("no CFG node at line %d", line)
	}
	return n
}

func TestFig2CFGShape(t *testing.T) {
	g := fig2Graph(t)
	// 15 statement nodes (paper n0..n14) plus begin and end.
	if g.Size() != 17 {
		t.Fatalf("node count = %d, want 17", g.Size())
	}
	conds, writes := 0, 0
	for _, n := range g.Nodes {
		switch n.Kind {
		case KindCond:
			conds++
		case KindWrite:
			writes++
		}
	}
	if conds != 6 {
		t.Errorf("cond nodes = %d, want 6", conds)
	}
	if writes != 9 {
		t.Errorf("write nodes = %d, want 9", writes)
	}
	if len(g.StatementNodes()) != 15 {
		t.Errorf("statement nodes = %d, want 15", len(g.StatementNodes()))
	}

	// begin flows to the changed conditional (paper n0, our line 6).
	n0 := nodeAt(t, g, 6)
	if len(g.Begin.Succs) != 1 || g.Begin.Succs[0].To != n0 {
		t.Errorf("begin successor = %v, want %v", g.Begin.Succs, n0)
	}
	// n0 true -> write at line 7, false -> cond at line 8.
	if got := n0.TrueSucc(); got != nodeAt(t, g, 7) {
		t.Errorf("n0 true successor = %v, want line 7", got)
	}
	if got := n0.FalseSucc(); got != nodeAt(t, g, 8) {
		t.Errorf("n0 false successor = %v, want line 8", got)
	}
	// All three writes of the first if-chain join at line 13.
	join := nodeAt(t, g, 13)
	for _, line := range []int{7, 9, 11} {
		w := nodeAt(t, g, line)
		if len(w.Succs) != 1 || w.Succs[0].To != join {
			t.Errorf("line %d successor = %v, want join at line 13", line, w.Succs)
		}
	}
	// BSwitch == 1 false edge skips to the PedalCmd == 2 cond (line 19).
	b1 := nodeAt(t, g, 16)
	if got := b1.FalseSucc(); got != nodeAt(t, g, 19) {
		t.Errorf("BSwitch==1 false successor = %v, want line 19", got)
	}
	// Last writes flow to end.
	for _, line := range []int{20, 22, 24} {
		w := nodeAt(t, g, line)
		if len(w.Succs) != 1 || w.Succs[0].To != g.End {
			t.Errorf("line %d successor = %v, want end", line, w.Succs)
		}
	}
}

func TestFig2DefUse(t *testing.T) {
	g := fig2Graph(t)
	n0 := nodeAt(t, g, 6)
	if n0.Def != "" {
		t.Errorf("cond node Def = %q, want ⊥ (empty)", n0.Def)
	}
	if !n0.Use["PedalPos"] || len(n0.Use) != 1 {
		t.Errorf("cond node Use = %v, want {PedalPos}", n0.Use)
	}
	w7 := nodeAt(t, g, 7) // PedalCmd = PedalCmd + 1
	if w7.Def != "PedalCmd" {
		t.Errorf("Def(line 7) = %q, want PedalCmd", w7.Def)
	}
	if !w7.Use["PedalCmd"] || len(w7.Use) != 1 {
		t.Errorf("Use(line 7) = %v, want {PedalCmd}", w7.Use)
	}
	w11 := nodeAt(t, g, 11) // PedalCmd = PedalPos
	if w11.Def != "PedalCmd" || !w11.Use["PedalPos"] {
		t.Errorf("line 11 Def=%q Use=%v, want PedalCmd / {PedalPos}", w11.Def, w11.Use)
	}
	vars := g.Vars()
	for _, v := range []string{"AltPress", "Meter", "PedalPos", "BSwitch", "PedalCmd"} {
		if !vars[v] {
			t.Errorf("Vars missing %s (got %v)", v, vars)
		}
	}
}

func TestEveryNodeReachableAndReachesEnd(t *testing.T) {
	g := fig2Graph(t)
	for _, n := range g.Nodes {
		if !g.IsCFGPath(g.Begin, n) {
			t.Errorf("%v not reachable from begin", n)
		}
		if !g.IsCFGPath(n, g.End) {
			t.Errorf("%v does not reach end", n)
		}
	}
}

func TestIsCFGPath(t *testing.T) {
	g := fig2Graph(t)
	n0 := nodeAt(t, g, 6)
	w7 := nodeAt(t, g, 7)
	w9 := nodeAt(t, g, 9)
	join := nodeAt(t, g, 13)
	if !g.IsCFGPath(n0, join) {
		t.Error("n0 should reach the join")
	}
	if g.IsCFGPath(w7, w9) {
		t.Error("sibling branches must not reach each other")
	}
	if g.IsCFGPath(join, n0) {
		t.Error("no back edge: join must not reach n0")
	}
	if !g.IsCFGPath(w7, w7) {
		t.Error("IsCFGPath must be reflexive (Definition 3.2)")
	}
}

func TestPostDominance(t *testing.T) {
	g := fig2Graph(t)
	n0 := nodeAt(t, g, 6)
	w7 := nodeAt(t, g, 7)
	join := nodeAt(t, g, 13)
	// The paper's example: postDom(n0, n5) is true — our join at line 13
	// post-dominates the changed conditional.
	if !g.PostDom(n0, join) {
		t.Error("join must post-dominate n0")
	}
	if g.PostDom(n0, w7) {
		t.Error("then-branch write must not post-dominate n0")
	}
	if !g.PostDom(w7, w7) {
		t.Error("post-dominance must be reflexive")
	}
	if !g.PostDom(n0, g.End) {
		t.Error("end post-dominates everything")
	}
	if g.PostDom(g.End, n0) {
		t.Error("interior node cannot post-dominate end")
	}
}

func TestControlDependence(t *testing.T) {
	g := fig2Graph(t)
	n0 := nodeAt(t, g, 6) // PedalPos <= 0
	w7 := nodeAt(t, g, 7) // then write
	c8 := nodeAt(t, g, 8) // PedalPos == 1
	w9 := nodeAt(t, g, 9) // nested then write
	join := nodeAt(t, g, 13)

	// The paper: "node n1 is control dependent on n0".
	if !g.ControlD(n0, w7) {
		t.Error("w7 must be control dependent on n0")
	}
	if !g.ControlD(n0, c8) {
		t.Error("the else-if cond must be control dependent on n0")
	}
	if !g.ControlD(c8, w9) {
		t.Error("w9 must be control dependent on c8")
	}
	if g.ControlD(n0, join) {
		t.Error("the join must NOT be control dependent on n0")
	}
	if g.ControlD(w7, w9) {
		t.Error("write nodes have a single successor; nothing is control dependent on them")
	}
	if g.ControlD(n0, w9) {
		// w9 requires both n0 false AND c8 true; it is control dependent on
		// c8, and only transitively related to n0.
		t.Error("w9 is directly control dependent on c8, not n0")
	}

	deps := g.ControlDependents(n0)
	for _, d := range deps {
		if !g.ControlD(n0, d) {
			t.Errorf("ControlDependents returned %v that fails ControlD", d)
		}
	}
	if len(deps) != 2 {
		t.Errorf("direct control dependents of n0 = %v, want exactly {w7, c8}", deps)
	}
}

const loopSource = `
proc count(int n) {
  i = 0;
  sum = 0;
  while (i < n) {
    sum = sum + i;
    i = i + 1;
  }
  assert sum >= 0;
}
`

func TestWhileLoopCFG(t *testing.T) {
	g := buildProc(t, loopSource, "count")
	cond := nodeAt(t, g, 5) // while (i < n)
	if cond.Kind != KindCond {
		t.Fatalf("while node kind = %v, want cond", cond.Kind)
	}
	body1 := nodeAt(t, g, 6)
	body2 := nodeAt(t, g, 7)
	if cond.TrueSucc() != body1 {
		t.Errorf("loop true successor = %v, want body line 6", cond.TrueSucc())
	}
	if len(body2.Succs) != 1 || body2.Succs[0].To != cond {
		t.Errorf("loop back edge = %v, want -> cond", body2.Succs)
	}
	// Back edge makes the loop an SCC of size 3.
	scc := g.GetSCC(cond)
	if len(scc) != 3 {
		t.Fatalf("loop SCC size = %d, want 3 (%v)", len(scc), scc)
	}
	if !g.IsLoopEntryNode(cond) {
		t.Error("while cond must be a loop entry node")
	}
	if g.IsLoopEntryNode(body1) {
		t.Error("loop body node must not be a loop entry (no external preds)")
	}
	if g.IsLoopEntryNode(nodeAt(t, g, 3)) {
		t.Error("straight-line node must not be a loop entry")
	}
	// Reachability through the cycle: body reaches cond and vice versa.
	if !g.IsCFGPath(body2, body1) {
		t.Error("loop body must reach itself through the back edge")
	}
}

func TestAssertDesugaring(t *testing.T) {
	g := buildProc(t, loopSource, "count")
	an := nodeAt(t, g, 9) // assert sum >= 0
	if an.Kind != KindCond {
		t.Fatalf("assert node kind = %v, want cond (de-sugared per §5.1)", an.Kind)
	}
	if g.Error == nil {
		t.Fatal("graph has no error node")
	}
	if an.FalseSucc() != g.Error {
		t.Errorf("assert false successor = %v, want error node", an.FalseSucc())
	}
	if an.TrueSucc() != g.End {
		t.Errorf("assert true successor = %v, want end", an.TrueSucc())
	}
	if len(g.Error.Succs) != 1 || g.Error.Succs[0].To != g.End {
		t.Errorf("error node must flow to end, got %v", g.Error.Succs)
	}
}

func TestReturnWiring(t *testing.T) {
	src := `proc p(int x) {
		if (x > 0) {
			return;
		}
		x = 1;
	}`
	g := buildProc(t, src, "p")
	ret := nodeAt(t, g, 3)
	if ret.Kind != KindNop {
		t.Fatalf("return node kind = %v, want nop", ret.Kind)
	}
	if len(ret.Succs) != 1 || ret.Succs[0].To != g.End {
		t.Errorf("return successor = %v, want end", ret.Succs)
	}
	// The assignment after the if must still be reachable via the false edge.
	w := nodeAt(t, g, 5)
	if !g.IsCFGPath(g.Begin, w) {
		t.Error("x = 1 must be reachable via the false branch")
	}
}

func TestEmptyBody(t *testing.T) {
	g := buildProc(t, "proc p() { }", "p")
	if g.Size() != 2 {
		t.Fatalf("empty proc node count = %d, want 2", g.Size())
	}
	if len(g.Begin.Succs) != 1 || g.Begin.Succs[0].To != g.End {
		t.Error("begin must flow to end for an empty body")
	}
}

func TestEmptyLoopBody(t *testing.T) {
	g := buildProc(t, "proc p(bool b) { while (b) { } x = 1; }", "p")
	cond := nodeAt(t, g, 1)
	if cond.TrueSucc() != cond {
		t.Errorf("empty loop true successor = %v, want self loop", cond.TrueSucc())
	}
	if !g.IsLoopEntryNode(cond) {
		t.Error("self-loop cond must be a loop entry node")
	}
	if len(g.GetSCC(cond)) != 1 {
		t.Errorf("self-loop SCC = %v, want singleton", g.GetSCC(cond))
	}
}

func TestNestedLoopsSCC(t *testing.T) {
	src := `proc p(int n) {
		i = 0;
		while (i < n) {
			j = 0;
			while (j < n) {
				j = j + 1;
			}
			i = i + 1;
		}
	}`
	g := buildProc(t, src, "p")
	outer := nodeAt(t, g, 3)
	inner := nodeAt(t, g, 5)
	// Inner and outer loops are one SCC through the nesting (outer -> inner
	// -> back to outer), per Tarjan on the CFG.
	sccOuter := g.GetSCC(outer)
	sccInner := g.GetSCC(inner)
	if len(sccOuter) != len(sccInner) {
		t.Errorf("nested loops should share an SCC: outer %d nodes, inner %d", len(sccOuter), len(sccInner))
	}
	if !g.IsLoopEntryNode(outer) {
		t.Error("outer cond must be loop entry")
	}
}

func TestIfWithoutElseJoin(t *testing.T) {
	src := `proc p(int x) {
		if (x > 0) {
			x = 1;
		}
		x = 2;
	}`
	g := buildProc(t, src, "p")
	c := nodeAt(t, g, 2)
	join := nodeAt(t, g, 5)
	if c.FalseSucc() != join {
		t.Errorf("if-without-else false successor = %v, want join", c.FalseSucc())
	}
	if got := nodeAt(t, g, 3).Succs[0].To; got != join {
		t.Errorf("then exit = %v, want join", got)
	}
}

func TestNodeForStatementMapping(t *testing.T) {
	_, pr, err := parser.ParseProcedure(fig2Source, "update")
	if err != nil {
		t.Fatal(err)
	}
	g := Build(pr)
	seen := 0
	ast.Walk(pr.Body.Stmts, func(s ast.Stmt) {
		if _, isBlock := s.(*ast.Block); isBlock {
			return
		}
		if g.NodeFor(s) == nil {
			t.Errorf("no CFG node for statement %s", s)
		}
		seen++
	})
	if seen != 15 {
		t.Errorf("walked %d statements, want 15", seen)
	}
}

func TestDotOutput(t *testing.T) {
	g := fig2Graph(t)
	dot := g.Dot(DotOptions{Title: "fig2", Highlight: map[int]string{1: "lightcoral"}})
	for _, want := range []string{
		"digraph cfg {",
		"label=\"fig2\"",
		"shape=diamond",
		"shape=oval",
		"fillcolor=\"lightcoral\"",
		"[label=\"true\"]",
		"[label=\"false\"]",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Error("bitset set/has broken")
	}
	if b.Count() != 3 {
		t.Errorf("count = %d, want 3", b.Count())
	}
	c := NewBitset(130)
	c.Set(5)
	if changed := c.Or(b); !changed {
		t.Error("or should report change")
	}
	if !c.Has(0) || !c.Has(5) {
		t.Error("or result wrong")
	}
	if changed := c.Or(b); changed {
		t.Error("second or should be a no-op")
	}
	d := b.Clone()
	d.And(c)
	if d.Count() != 3 {
		t.Errorf("and result count = %d, want 3", d.Count())
	}
	var members []int
	for i := c.Next(0); i >= 0; i = c.Next(i + 1) {
		members = append(members, i)
	}
	if !reflect.DeepEqual(members, []int{0, 5, 64, 129}) {
		t.Errorf("Next walk = %v, want [0 5 64 129]", members)
	}
	c.Clear(64)
	c.Clear(1)
	if c.Has(64) || c.Count() != 3 || c.Next(6) != 129 || c.Next(130) != -1 {
		t.Errorf("after Clear(64): count %d, Next(6) = %d, Next(130) = %d", c.Count(), c.Next(6), c.Next(130))
	}
}

// TestHopDistances covers the all-pairs distance analysis the directed
// search strategy orders states by.
func TestHopDistances(t *testing.T) {
	g := fig2Graph(t)
	if d := g.Dist(g.Begin.ID, g.Begin.ID); d != 0 {
		t.Errorf("Dist(begin, begin) = %d, want 0", d)
	}
	if d := g.Dist(g.End.ID, g.Begin.ID); d != -1 {
		t.Errorf("Dist(end, begin) = %d, want -1 (unreachable)", d)
	}
	// Distance to end must be positive from begin and shrink along any edge
	// of a shortest path; check monotonicity over successors.
	dBegin := g.Dist(g.Begin.ID, g.End.ID)
	if dBegin <= 0 {
		t.Fatalf("Dist(begin, end) = %d, want > 0", dBegin)
	}
	bestSucc := dBegin
	for _, e := range g.Begin.Succs {
		if d := g.Dist(e.To.ID, g.End.ID); d >= 0 && d < bestSucc {
			bestSucc = d
		}
	}
	if bestSucc != dBegin-1 {
		t.Errorf("shortest successor distance = %d, want %d", bestSucc, dBegin-1)
	}
	// Dist must agree with reachability everywhere.
	for _, from := range g.Nodes {
		for _, to := range g.Nodes {
			reach := g.Reaches(from.ID, to.ID)
			if (g.Dist(from.ID, to.ID) >= 0) != reach {
				t.Fatalf("Dist(%d,%d) disagrees with Reaches=%v", from.ID, to.ID, reach)
			}
		}
	}
}
