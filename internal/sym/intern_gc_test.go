package sym

import (
	"fmt"
	"sync"
	"testing"
)

// gcExpr builds a structure unlikely to be shared with other tests, from a
// salt so repeated calls rebuild the identical structure. The symbolic-armed
// ite subterm (which no constructor fold removes) extends every collection
// test to the shapes state merging produces: Equal and both fingerprint
// halves must stay stable for ite trees across collection eras too.
func gcExpr(salt string, v int64) Expr {
	x := V("gc_" + salt + "_x")
	y := V("gc_" + salt + "_y")
	m := ITE(Cmp(OpLT, x, y), Add(x, Int(v)), Sub(y, Int(v)))
	return AndE(Cmp(OpLT, Add(x, Int(v)), y), NotE(Cmp(OpEQ, m, Int(v+100000))))
}

func TestInternCanonicalWithinEpoch(t *testing.T) {
	a := gcExpr("within", 12345)
	b := gcExpr("within", 12345)
	if a != b {
		t.Fatalf("same structure interned twice in one epoch: distinct pointers %p %p", a, b)
	}
	if !Equal(a, b) {
		t.Fatal("Equal(a, a) = false")
	}
}

func TestInternCollectThenReintern(t *testing.T) {
	five := Int(5)
	tr := Bool(true)

	a := gcExpr("reintern", 54321)
	fp1, fp2 := Fingerprints(a)
	str := a.String()

	// Age the entry out: advance past the keep window and collect.
	for i := 0; i < 3; i++ {
		AdvanceEpoch()
	}
	if dropped := CollectInterned(1); dropped == 0 {
		t.Fatal("CollectInterned collected nothing despite aged entries")
	}

	b := gcExpr("reintern", 54321)
	if a == b {
		t.Fatalf("expected a fresh node after collection, got the old pointer %p", a)
	}
	if !Equal(a, b) || !Equal(b, a) {
		t.Fatal("Equal must hold across a collection for structurally equal nodes")
	}
	if g1, g2 := Fingerprints(b); g1 != fp1 || g2 != fp2 {
		t.Fatalf("fingerprints changed across collection: (%x,%x) vs (%x,%x)", fp1, fp2, g1, g2)
	}
	if b.String() != str {
		t.Fatalf("rendering changed across collection: %q vs %q", str, b.String())
	}
	// Distinct structures must stay unequal across the collection boundary
	// (the fingerprint compare is exact, not approximate).
	if Equal(a, gcExpr("reintern", 54322)) {
		t.Fatal("Equal(true) for structurally distinct nodes across collection")
	}
	// And a third build in the same (new) era re-canonicalizes.
	if c := gcExpr("reintern", 54321); c != b {
		t.Fatalf("post-collection interning not canonical: %p vs %p", b, c)
	}

	// Pinned constants keep their identity: the constructors bypass the
	// table, so collection must never mint duplicate singletons.
	if Int(5) != five || Bool(true) != tr {
		t.Fatal("pre-interned constants lost identity across collection")
	}
}

func TestInternStatsCounters(t *testing.T) {
	before := InternTableStats()
	gcExpr("stats", int64(9000)+int64(before.Interned%1000))
	after := InternTableStats()
	if after.Entries <= 0 || after.ApproxBytes <= 0 {
		t.Fatalf("implausible snapshot: %+v", after)
	}
	if after.Interned <= before.Interned {
		t.Fatalf("interned counter did not advance: %d -> %d", before.Interned, after.Interned)
	}
}

// TestInternCollectRaceStress interleaves 8 goroutines interning and
// comparing expressions with a collector thread aging entries out as fast
// as it can. Run under -race this exercises the shard-lock discipline; the
// assertions check the relaxed contract (Equal and fingerprints stable,
// pointer identity only within an era).
func TestInternCollectRaceStress(t *testing.T) {
	const (
		workers = 8
		iters   = 400
	)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				salt := fmt.Sprintf("race%d", (w+i)%5)
				v := int64(1000 + i%17)
				a := gcExpr(salt, v)
				b := gcExpr(salt, v)
				if !Equal(a, b) {
					t.Errorf("Equal=false for same structure (%s, %d)", salt, v)
					return
				}
				if Fingerprint(a) != Fingerprint(b) {
					t.Errorf("fingerprint drift for same structure (%s, %d)", salt, v)
					return
				}
				if Equal(a, gcExpr(salt, v+1)) {
					t.Errorf("Equal=true for distinct structures (%s, %d)", salt, v)
					return
				}
			}
		}(w)
	}
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				AdvanceEpoch()
				CollectInterned(1)
			}
		}
	}()
	wg.Wait()
	close(done)
}
