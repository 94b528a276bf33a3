package constraint

import (
	"fmt"
	"testing"

	"dise/internal/solver"
	"dise/internal/sym"
)

// TestIntervalCycleAllocs bounds the allocations of one Push/Assert/Check/Pop
// cycle on a warm interval backend over 25 inputs, in the cycle the engine
// sends: the engine decides a conjunct its state's witness satisfies without
// a Check, so the conjunct violates the parent's witness; it tightens an
// input, and the tightened box decides it with no search. The cycle reuses
// the popped frame object and the solver's scratch, so it allocates the
// verdict, one prefix-cache slot with its LRU element, the frame's Box with
// its interval slice, and the model with its value vector (7), and no map.
// A frame that tightens nothing shares its parent's box.
func TestIntervalCycleAllocs(t *testing.T) {
	doms := map[string]solver.Interval{}
	for i := 0; i < 25; i++ {
		doms[fmt.Sprintf("I%02d", i)] = solver.DefaultDomain
	}
	// A one-entry cache: alternating two frames, every Check misses it and
	// propagates its frame.
	ib := newIntervalBackend(Options{Domains: doms, Cache: NewPrefixCache(1)}, true)
	x := sym.V("I07")
	ib.Push()
	ib.Assert(sym.Cmp(sym.OpGE, x, sym.Int(5)))
	witness := ib.Check().Model
	if witness == nil {
		t.Fatal("I07 >= 5 must be sat")
	}
	parent := ib.frames[1]
	cycle := func(c sym.Expr) {
		ib.Push()
		ib.Assert(c)
		if !ib.Check().Sat {
			t.Fatalf("%v must be sat", c)
		}
		ib.Pop()
	}

	kept := sym.Cmp(sym.OpGE, x, sym.Int(2))
	cycle(kept)
	ent, ok := ib.cache.get(parent.key.extendFP(sym.Fingerprints(kept)))
	if !ok || ent.box != parent.box {
		t.Fatalf("a frame that tightens nothing must share its parent's box (cached %v)", ok)
	}

	c1, c2 := sym.Cmp(sym.OpGE, x, sym.Int(6)), sym.Cmp(sym.OpGE, x, sym.Int(7))
	for _, c := range []sym.Expr{c1, c2} {
		if v, err := sym.Eval(c, witness); err != nil || v != 0 {
			t.Fatalf("the parent's witness %v must violate %v", witness, c)
		}
	}
	cycle(c1) // warm: propagation templates, frame object, scratch
	cycle(c2)
	before := ib.Stats()
	allocs := testing.AllocsPerRun(100, func() { cycle(c1); cycle(c2) }) / 2
	after := ib.Stats()
	checks := after.Checks - before.Checks
	if full := after.FullSolves - before.FullSolves; full != checks || checks == 0 {
		t.Fatalf("%d of %d checks were full solves, want all", full, checks)
	}
	if nodes := after.SearchNodes - before.SearchNodes; nodes != 0 {
		t.Fatalf("the tightened box must decide the conjunct with no search, took %d nodes", nodes)
	}
	t.Logf("allocs per cycle: %.1f", allocs)
	const bound = 7
	if allocs > bound {
		t.Errorf("a cycle allocates %.1f times, bound %d (verdict, cache slot, LRU element, Box, interval slice, model, value vector)", allocs, bound)
	}
}
