package constraint

import (
	"fmt"
	"testing"

	"dise/internal/solver"
	"dise/internal/sym"
)

// TestIntervalCycleAllocs bounds the allocations of one Push/Assert/Check/Pop
// cycle on a warm interval backend over 25 inputs, in the common case down a
// feasible path: the parent's witness model satisfies the new conjunct, so
// the Check propagates the frame and reuses the model. The cycle reuses the
// popped frame object and the solver's scratch, so it allocates the verdict
// and one prefix-cache slot with its LRU element (3). A frame that tightens
// an input adds its box, one Box and its interval slice (2), and no map; a
// frame that tightens nothing shares its parent's box and allocates none.
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
	if !ib.Check().Sat {
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
	measure := func(c1, c2 sym.Expr) float64 {
		cycle(c1) // warm: propagation templates, frame object, scratch
		cycle(c2)
		before := ib.Stats()
		allocs := testing.AllocsPerRun(100, func() { cycle(c1); cycle(c2) }) / 2
		after := ib.Stats()
		if reuses, checks := after.ModelReuses-before.ModelReuses, after.Checks-before.Checks; reuses != checks || checks == 0 {
			t.Fatalf("%v, %v: %d of %d checks reused the witness, want all", c1, c2, reuses, checks)
		}
		return allocs
	}

	keeps := measure(sym.Cmp(sym.OpGE, x, sym.Int(3)), sym.Cmp(sym.OpGE, x, sym.Int(4)))
	kept := sym.Cmp(sym.OpGE, x, sym.Int(2))
	cycle(kept)
	ent, ok := ib.cache.get(parent.key.extendFP(sym.Fingerprints(kept)))
	if !ok || ent.box != parent.box {
		t.Fatalf("a frame that tightens nothing must share its parent's box (cached %v)", ok)
	}
	tightens := measure(sym.Cmp(sym.OpLE, x, sym.Int(100)), sym.Cmp(sym.OpLE, x, sym.Int(200)))
	t.Logf("allocs per cycle: frame keeps its parent's box %.1f, frame tightens %.1f", keeps, tightens)
	if keeps > 3 {
		t.Errorf("a cycle whose frame tightens nothing allocates %.1f times, bound 3 (verdict, cache slot, LRU element)", keeps)
	}
	if tightens > keeps+2 {
		t.Errorf("a cycle whose frame tightens allocates %.1f times, bound %.1f + 2 (Box, interval slice)", tightens, keeps)
	}
}
