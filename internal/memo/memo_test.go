package memo

import (
	"testing"

	"dise/internal/solver"
	"dise/internal/sym"
)

// Constraint fixtures: condA and its negation, built twice so tests can
// exercise the structural-equality (not pointer-equality) matching path.
func condA() sym.Expr  { return sym.Cmp(sym.OpGT, sym.V("X"), sym.Int(3)) }
func condNA() sym.Expr { return sym.NotE(condA()) }
func condB() sym.Expr  { return sym.Cmp(sym.OpGT, sym.V("Y"), sym.Int(5)) }

// buildTrie assembles a small recorded trie:
//
//	root(^) ──nil──> w(s0) ──nil──> c(s1) ──A──> t(s2)
//	                                   └──¬A──> f(s3)
func buildTrie() (*Tree, *Node, *Node, *Node, *Node) {
	tree := &Tree{}
	root := tree.Root("^")
	var kids [2]*Node
	tree.Expand(root, []Arm{{Via: ViaFlow, Slot: tree.Slot("s0")}}, kids[:])
	w := kids[0]
	tree.Expand(w, []Arm{{Via: ViaFlow, Slot: tree.Slot("s1")}}, kids[:])
	c := kids[0]
	tree.Expand(c, []Arm{
		{Via: ViaTrue, Cond: condA(), Slot: tree.Slot("s2")},
		{Via: ViaFalse, Cond: condNA(), Slot: tree.Slot("s3")},
	}, kids[:])
	tNode, fNode := kids[0], kids[1]
	tree.Record(c, condA(), true, solver.NewModel(nil, map[string]int64{"X": 4}))
	tree.Record(c, condNA(), false, nil)
	return tree, w, c, tNode, fNode
}

func TestChildMatchesArmAndContribution(t *testing.T) {
	_, _, c, tNode, fNode := buildTrie()
	if got := c.Child(ViaTrue, condA()); got != tNode {
		t.Fatalf("Child(true, A) = %v, want the recorded true child", got)
	}
	if got := c.Child(ViaFalse, condNA()); got != fNode {
		t.Fatalf("Child(false, !A) = %v, want the recorded false child", got)
	}
	// Same arm, different contribution: a different conjunction — no match.
	if got := c.Child(ViaTrue, condB()); got != nil {
		t.Fatalf("Child(true, B) = %v, want nil (chain invariant)", got)
	}
	// Same contribution, different arm: the diamond-join guard.
	if got := c.Child(ViaFalse, condA()); got != nil {
		t.Fatalf("Child(false, A) = %v, want nil (arm mismatch)", got)
	}
	// Flow children match the absent contribution only.
	if got := c.Child(ViaTrue, nil); got != nil {
		t.Fatalf("Child(true, nil) = %v, want nil", got)
	}
}

func TestLookupByStructuralEquality(t *testing.T) {
	_, _, c, _, _ := buildTrie()
	if v, ok := c.Lookup(condA()); !ok || !v.Sat || v.Model.Map()["X"] != 4 {
		t.Fatalf("Lookup(A) = %+v, %v", v, ok)
	}
	if v, ok := c.Lookup(condNA()); !ok || v.Sat {
		t.Fatalf("Lookup(!A) = %+v, %v", v, ok)
	}
	if _, ok := c.Lookup(condB()); ok {
		t.Fatalf("Lookup(B) matched an unrecorded constraint")
	}
}

func TestRekeyTranslatesAndCounts(t *testing.T) {
	tree, w, c, tNode, _ := buildTrie()
	// s0 changed (no correspondence); everything else survives, with s1
	// shifted to s9 by the edit.
	kept, invalidated := tree.Rekey(map[string]string{
		"^": "^", "s1": "s9", "s2": "s2", "s3": "s3",
	})
	if kept != 4 || invalidated != 1 {
		t.Fatalf("Rekey = kept %d, invalidated %d; want 4, 1", kept, invalidated)
	}
	if w.Key() != "" {
		t.Errorf("invalidated node kept its identity %q", w.Key())
	}
	if c.Key() != "s9" {
		t.Errorf("surviving node key = %q, want s9", c.Key())
	}
	// Invalidation is identity-level only: recorded facts stay reachable so
	// renderings that still match (or match again after a revert) replay.
	if len(c.verdicts) != 2 || len(c.succs) != 2 || c.succs[0] != tNode {
		t.Errorf("rekey dropped recorded facts: %+v", c)
	}
}

func TestSizeAndInvalidate(t *testing.T) {
	tree, _, _, _, _ := buildTrie()
	if got := tree.Size(); got != 5 {
		t.Fatalf("Size = %d, want 5", got)
	}
	if got := tree.Invalidate(); got != 5 {
		t.Fatalf("Invalidate = %d, want 5", got)
	}
	if got := tree.Size(); got != 0 {
		t.Fatalf("Size after Invalidate = %d, want 0", got)
	}
	// The tree is reusable: Root re-creates.
	if tree.Root("^") == nil || tree.Size() != 1 {
		t.Fatalf("Root after Invalidate did not re-create")
	}
}

func TestRootIsStableAcrossSteps(t *testing.T) {
	tree := &Tree{}
	r1 := tree.Root("^")
	r1.Expanded = true
	if r2 := tree.Root("^"); r2 != r1 || !r2.Expanded {
		t.Fatalf("Root re-created or wiped an existing root")
	}
}
