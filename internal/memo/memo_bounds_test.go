package memo

import (
	"testing"

	"dise/internal/solver"
	"dise/internal/sym"
)

// buildChain attaches a linear chain of n nodes under parent, at the tree's
// current generation, giving each node hits recorded lookups, and returns
// the first node of the chain.
func buildChain(tr *Tree, parent *Node, n int, hits uint32, via int8, cond sym.Expr) *Node {
	var kids [1]*Node
	tr.Expand(parent, []Arm{{Via: via, Cond: cond, Slot: tr.Slot("k")}}, kids[:])
	first := kids[0]
	first.hits = hits
	cur := first
	for i := 1; i < n; i++ {
		tr.Expand(cur, []Arm{{Via: ViaFlow, Slot: tr.Slot("k")}}, kids[:])
		cur = kids[0]
		cur.hits = hits
	}
	return first
}

func TestEnforceNoBudgetIsNoop(t *testing.T) {
	var tr Tree
	root := tr.Root("r")
	buildChain(&tr, root, 50, 0, ViaTrue, sym.V("c1"))
	if n := tr.Enforce(); n != 0 {
		t.Fatalf("Enforce with no budget evicted %d nodes", n)
	}
	if tr.Size() != 51 {
		t.Fatalf("tree changed size without a budget: %d", tr.Size())
	}
}

func TestEnforceEvictsColdestSubtreeFirst(t *testing.T) {
	var tr Tree
	tr.BeginStep() // gen 1
	root := tr.Root("r")
	cold := buildChain(&tr, root, 10, 0, ViaTrue, sym.Cmp(sym.OpLT, sym.V("a"), sym.Int(3)))
	tr.BeginStep() // gen 2
	hot := buildChain(&tr, root, 10, 5, ViaFalse, sym.Cmp(sym.OpGE, sym.V("a"), sym.Int(3)))

	tr.SetNodeBudget(11) // root + one chain
	evicted := tr.Enforce()
	if evicted != 10 {
		t.Fatalf("evicted %d nodes, want 10", evicted)
	}
	if tr.Size() != 11 {
		t.Fatalf("size after Enforce = %d, want 11", tr.Size())
	}
	// The stale (gen-1) chain went; the current-step chain stayed.
	if root.Child(ViaTrue, cold.ViaCond) != nil {
		t.Fatal("cold subtree still attached after Enforce")
	}
	if root.Child(ViaFalse, hot.ViaCond) != hot {
		t.Fatal("hot subtree was evicted")
	}
	subtrees, nodes := tr.EvictionStats()
	if subtrees != 1 || nodes != 10 {
		t.Fatalf("eviction stats = (%d, %d), want (1, 10)", subtrees, nodes)
	}
}

func TestEnforceHitAwareAmongEquallyStale(t *testing.T) {
	var tr Tree
	tr.BeginStep()
	root := tr.Root("r")
	unhit := buildChain(&tr, root, 8, 0, ViaTrue, sym.V("p"))
	hitten := buildChain(&tr, root, 8, 9, ViaFalse, sym.V("q"))
	tr.BeginStep() // both chains now stale

	tr.SetNodeBudget(9)
	if n := tr.Enforce(); n != 8 {
		t.Fatalf("evicted %d, want 8", n)
	}
	if root.Child(ViaTrue, unhit.ViaCond) != nil {
		t.Fatal("never-hit subtree survived over the frequently-hit one")
	}
	if root.Child(ViaFalse, hitten.ViaCond) != hitten {
		t.Fatal("frequently-hit subtree was evicted first")
	}
}

func TestEnforceEvictedMeansColdNeverWrong(t *testing.T) {
	// After eviction the evicted conjunction must look exactly like one the
	// trie never recorded: Child returns nil (fresh node, cold re-solve) —
	// never a node with someone else's verdicts.
	var tr Tree
	tr.BeginStep()
	root := tr.Root("r")
	cond := sym.Cmp(sym.OpEQ, sym.V("x"), sym.Int(7))
	child := buildChain(&tr, root, 3, 0, ViaTrue, cond)
	tr.Record(child, cond, true, solver.NewModel(nil, map[string]int64{"x": 7}))
	tr.BeginStep()
	buildChain(&tr, root, 3, 0, ViaFalse, sym.NotE(cond))

	tr.SetNodeBudget(4)
	tr.Enforce()
	got := root.Child(ViaTrue, cond)
	if got != nil {
		t.Fatalf("evicted arm still resolves to a recorded node %+v", got)
	}
	// The surviving arm still replays its own facts only.
	if root.Child(ViaFalse, sym.NotE(cond)) == nil {
		t.Fatal("surviving arm lost its node")
	}
}

func TestEnforceDeterministic(t *testing.T) {
	build := func() *Tree {
		var tr Tree
		tr.BeginStep()
		root := tr.Root("r")
		for i := 0; i < 6; i++ {
			buildChain(&tr, root, 5, uint32(i%3), ViaTrue, sym.Cmp(sym.OpLT, sym.V("v"), sym.Int(int64(i))))
		}
		tr.SetNodeBudget(16)
		return &tr
	}
	a, b := build(), build()
	a.Enforce()
	b.Enforce()
	if a.Size() != b.Size() {
		t.Fatalf("non-deterministic eviction: sizes %d vs %d", a.Size(), b.Size())
	}
	ra, rb := a.Root(""), b.Root("")
	if len(ra.succs) != len(rb.succs) {
		t.Fatalf("non-deterministic eviction: %d vs %d surviving children", len(ra.succs), len(rb.succs))
	}
	for i := range ra.succs {
		if !eqExpr(ra.succs[i].ViaCond, rb.succs[i].ViaCond) {
			t.Fatalf("surviving child %d differs between identical runs", i)
		}
	}
}

func TestBytesEstimatorSanity(t *testing.T) {
	var tr Tree
	if tr.Bytes() != 0 {
		t.Fatalf("empty tree reports %d bytes", tr.Bytes())
	}
	root := tr.Root("begin")
	small := tr.Bytes()
	if small <= 0 {
		t.Fatalf("single-node tree reports %d bytes", small)
	}
	cond := sym.Cmp(sym.OpLT, sym.V("x"), sym.Int(1))
	c := buildChain(&tr, root, 20, 0, ViaTrue, cond)
	tr.Record(c, cond, true, solver.NewModel(nil, map[string]int64{"x": 0, "y": 1}))
	grown := tr.Bytes()
	if grown <= small {
		t.Fatalf("Bytes did not grow with nodes: %d -> %d", small, grown)
	}
	// Sanity bounds: each node costs at least the struct base and at most a
	// few KB for these tiny nodes.
	n := int64(tr.Size())
	if grown < n*nodeBaseBytes || grown > n*4096 {
		t.Fatalf("Bytes %d implausible for %d nodes", grown, n)
	}
	// Eviction reduces the estimate.
	tr.SetNodeBudget(5)
	tr.BeginStep()
	tr.Enforce()
	if after := tr.Bytes(); after >= grown {
		t.Fatalf("Bytes did not shrink after eviction: %d -> %d", grown, after)
	}
}

// TestUsageMatchesSizeAndBytes pins that Usage's one walk equals Size and
// Bytes, and the reference accounting, on a recorded trie before and after
// budget enforcement.
func TestUsageMatchesSizeAndBytes(t *testing.T) {
	var tr Tree
	tr.BeginStep()
	root := tr.Root("root")
	a := sym.Cmp(sym.OpLT, sym.V("a"), sym.Int(3))
	tr.Record(root, a, true, solver.NewModel(nil, map[string]int64{"a": 0, "b": 1}))
	tr.Record(root, sym.NotE(a), true, solver.NewModel(nil, map[string]int64{"a": 3}))
	cold := buildChain(&tr, root, 6, 0, ViaTrue, a)
	tr.Record(cold, sym.Cmp(sym.OpEQ, sym.V("b"), sym.Int(1)), false, nil)
	tr.BeginStep()
	hot := buildChain(&tr, root, 4, 3, ViaFalse, sym.NotE(a))
	tr.Record(hot, sym.Cmp(sym.OpGT, sym.V("b"), sym.Zero), true, solver.NewModel(nil, map[string]int64{"a": 3, "b": 1}))

	check := func(when string, wantNodes int) {
		t.Helper()
		nodes, bytes := tr.Usage()
		refNodes, refBytes := refUsage(tr.root)
		if nodes != wantNodes || nodes != refNodes || bytes != refBytes {
			t.Fatalf("%s: Usage = (%d, %d), want (%d, %d)", when, nodes, bytes, wantNodes, refBytes)
		}
		if nodes != tr.Size() || bytes != tr.Bytes() {
			t.Fatalf("%s: Usage = (%d, %d), Size/Bytes = (%d, %d)", when, nodes, bytes, tr.Size(), tr.Bytes())
		}
	}
	check("recorded", 11)
	tr.SetNodeBudget(5)
	if n := tr.Enforce(); n != 6 {
		t.Fatalf("Enforce evicted %d nodes, want the 6-node cold chain", n)
	}
	check("after Enforce", 5)
}
