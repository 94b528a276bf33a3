package constraint

import (
	"fmt"
	"reflect"
	"testing"

	"dise/internal/solver"
	"dise/internal/sym"
)

func domains(vars ...string) map[string]solver.Interval {
	out := map[string]solver.Interval{}
	for _, v := range vars {
		out[v] = solver.DefaultDomain
	}
	return out
}

func mustBackend(t *testing.T, name string, opts Options) Backend {
	t.Helper()
	b, err := New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// allBackends runs a subtest against every registered backend.
func allBackends(t *testing.T, opts Options, fn func(t *testing.T, b Backend)) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			fn(t, mustBackend(t, name, opts))
		})
	}
}

func TestUnknownBackendName(t *testing.T) {
	if _, err := New("z3", Options{}); err == nil {
		t.Fatal("unknown backend name must error")
	}
}

func TestPushPopAssertCheck(t *testing.T) {
	x, y := sym.V("X"), sym.V("Y")
	allBackends(t, Options{Domains: domains("X", "Y")}, func(t *testing.T, b Backend) {
		// Empty stack: trivially sat, model covers all domain variables.
		res := b.Check()
		if !res.Sat {
			t.Fatal("empty stack must be sat")
		}
		for _, v := range []string{"X", "Y"} {
			if _, ok := res.Model.Value(v); !ok {
				t.Errorf("model missing domain variable %s", v)
			}
		}

		// X >= 5 ∧ X <= 10: sat, and the model respects both.
		b.Push()
		b.Assert(sym.Cmp(sym.OpGE, x, sym.Int(5)))
		b.Assert(sym.Cmp(sym.OpLE, x, sym.Int(10)))
		res = b.Check()
		if !res.Sat {
			t.Fatal("5 <= X <= 10 must be sat")
		}
		if got := res.Model.Map()["X"]; got < 5 || got > 10 {
			t.Errorf("model X = %d, want within [5, 10]", got)
		}
		if res.Model.Index() == nil {
			t.Error("a sat result's model must be laid out over the input index")
		}

		// Deepen: X > Y ∧ Y >= 8 narrows X to [9, 10].
		b.Push()
		b.Assert(sym.Cmp(sym.OpGT, x, y))
		b.Assert(sym.Cmp(sym.OpGE, y, sym.Int(8)))
		res = b.Check()
		if !res.Sat {
			t.Fatal("X in [5,10], X > Y >= 8 must be sat")
		}
		if got := res.Model.Map()["X"]; got < 9 || got > 10 {
			t.Errorf("model X = %d, want within [9, 10]", got)
		}

		// Contradiction on top: unsat; popping restores satisfiability.
		b.Push()
		b.Assert(sym.Cmp(sym.OpLT, x, sym.Int(3)))
		if res = b.Check(); res.Sat || res.Unknown {
			t.Fatal("X in [9,10] and X < 3 must be unsat")
		}
		b.Pop()
		if res = b.Check(); !res.Sat {
			t.Fatal("popping the contradiction must restore sat")
		}
		b.Pop()
		b.Pop()
		if res = b.Check(); !res.Sat {
			t.Fatal("stack drained back to base must be sat")
		}
	})
}

func TestPopBaseFramePanics(t *testing.T) {
	allBackends(t, Options{}, func(t *testing.T, b Backend) {
		defer func() {
			if recover() == nil {
				t.Error("Pop on the base frame must panic")
			}
		}()
		b.Pop()
	})
}

func TestSiblingPrefixReuse(t *testing.T) {
	// Exploration-tree shape: a prefix of constraints, then two sibling
	// checks. The second sibling must be answered by the prefix machinery
	// (model reuse, cache, or snapshot) without a second full solve.
	x, y := sym.V("X"), sym.V("Y")
	b := mustBackend(t, BackendInterval, Options{Domains: domains("X", "Y")})
	b.Push()
	b.Assert(sym.Cmp(sym.OpGE, x, sym.Int(10)))
	b.Push()
	b.Assert(sym.Cmp(sym.OpLE, y, sym.Int(100)))
	if !b.Check().Sat {
		t.Fatal("prefix must be sat")
	}
	full := b.Stats().FullSolves

	// Sibling 1: prefix ∧ X >= 11 (satisfied by no model with X=10 — forces
	// some work), sibling 2: prefix ∧ X >= 12 after popping sibling 1.
	b.Push()
	b.Assert(sym.Cmp(sym.OpGE, x, sym.Int(11)))
	if !b.Check().Sat {
		t.Fatal("sibling 1 must be sat")
	}
	b.Pop()
	b.Push()
	b.Assert(sym.Cmp(sym.OpGE, x, sym.Int(11)))
	if !b.Check().Sat {
		t.Fatal("sibling 2 must be sat")
	}
	b.Pop()
	st := b.Stats()
	if st.CacheHits == 0 {
		t.Errorf("re-pushed identical frame must hit the prefix cache (stats %+v)", st)
	}
	if st.FullSolves > full+1 {
		t.Errorf("second identical sibling re-solved from scratch (full solves %d -> %d)", full, st.FullSolves)
	}
}

func TestSharedCacheAcrossBackends(t *testing.T) {
	// Two backend instances sharing one PrefixCache (the AnalyzeBatch
	// topology): the second engine's identical prefix is answered from the
	// first engine's work.
	x := sym.V("X")
	cache := NewPrefixCache(64)
	mk := func() Backend {
		return mustBackend(t, BackendInterval, Options{Domains: domains("X"), Cache: cache})
	}
	run := func(b Backend) {
		b.Push()
		b.Assert(sym.Cmp(sym.OpGE, x, sym.Int(7)))
		b.Push()
		b.Assert(sym.Cmp(sym.OpNE, x, sym.Int(9)))
		if !b.Check().Sat {
			t.Fatal("must be sat")
		}
	}
	run(mk())
	second := mk()
	run(second)
	if st := second.Stats(); st.CacheHits == 0 {
		t.Errorf("second engine must reuse the shared cache (stats %+v)", st)
	}
}

func TestModelWitnessFastPath(t *testing.T) {
	// A chain of constraints all satisfied by the prefix model: each deeper
	// Check must be a model reuse, not a full solve.
	x := sym.V("X")
	b := mustBackend(t, BackendInterval, Options{Domains: domains("X")})
	b.Push()
	b.Assert(sym.Cmp(sym.OpGE, x, sym.Int(5)))
	if !b.Check().Sat {
		t.Fatal("prefix must be sat")
	}
	for i := 0; i < 5; i++ {
		b.Push()
		b.Assert(sym.Cmp(sym.OpGE, x, sym.Int(4-int64(i)))) // already satisfied by X=5
		if !b.Check().Sat {
			t.Fatal("must stay sat")
		}
	}
	if st := b.Stats(); st.ModelReuses == 0 {
		t.Errorf("descending a satisfied chain must reuse the witness model (stats %+v)", st)
	}
}

func TestCacheHitPreservesResidual(t *testing.T) {
	// Regression: a Check answered by the prefix cache must restore the
	// frame's residual atoms along with its box. X+Y == 10 tightens neither
	// X nor Y alone, so the atom lives only in the residual — if a cache
	// hit drops it, a later Check on top of the re-pushed frame solves
	// without it and wrongly reports X+Y == 10 ∧ X == 7 ∧ Y == 5 as Sat.
	x, y := sym.V("X"), sym.V("Y")
	sum10 := sym.Cmp(sym.OpEQ, sym.Add(x, y), sym.Int(10))
	for _, name := range []string{BackendInterval, BackendBitvec} {
		t.Run(name, func(t *testing.T) {
			b := mustBackend(t, name, Options{Domains: domains("X", "Y")})
			b.Push()
			b.Assert(sum10)
			if !b.Check().Sat {
				t.Fatal("X+Y == 10 must be sat")
			}
			b.Pop()
			b.Push()
			b.Assert(sum10)
			if !b.Check().Sat { // cache hit on the re-pushed frame
				t.Fatal("re-pushed prefix must still be sat")
			}
			b.Push()
			b.Assert(sym.Cmp(sym.OpEQ, x, sym.Int(7)))
			b.Assert(sym.Cmp(sym.OpEQ, y, sym.Int(5)))
			if res := b.Check(); res.Sat {
				t.Fatalf("X+Y == 10 ∧ X == 7 ∧ Y == 5 must be unsat, got Sat with model %v", res.Model)
			}
		})
	}
}

func TestBackendsAgreeOnRandomLinearSystems(t *testing.T) {
	// Cross-backend differential test: all three backends must agree on
	// sat/unsat for small linear systems over small domains (where every
	// backend decides within budget and wraparound cannot trigger).
	vars := []string{"A", "B", "C"}
	doms := map[string]solver.Interval{}
	for _, v := range vars {
		doms[v] = solver.Interval{Lo: 0, Hi: 30}
	}
	ops := []sym.Op{sym.OpEQ, sym.OpNE, sym.OpLT, sym.OpLE, sym.OpGT, sym.OpGE}
	rng := uint64(12345)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for trial := 0; trial < 60; trial++ {
		var cs []sym.Expr
		for i := 0; i < 3+next(3); i++ {
			l := sym.V(vars[next(len(vars))])
			var rhs sym.Expr = sym.Int(int64(next(35)))
			if next(2) == 0 {
				rhs = sym.Add(sym.V(vars[next(len(vars))]), sym.Int(int64(next(10))))
			}
			cs = append(cs, sym.Cmp(ops[next(len(ops))], l, rhs))
		}
		verdicts := map[string]bool{}
		for _, name := range Names() {
			b := mustBackend(t, name, Options{Domains: doms})
			b.Push()
			for _, c := range cs {
				b.Assert(c)
			}
			res := b.Check()
			if res.Unknown {
				t.Fatalf("[%s] trial %d unexpectedly unknown for %v", name, trial, cs)
			}
			verdicts[name] = res.Sat
			if res.Sat {
				// The model must actually satisfy the conjunction.
				for _, c := range cs {
					v, err := solver.EvalInt01(c, res.Model)
					if err != nil || v == 0 {
						t.Fatalf("[%s] trial %d model %v violates %v (err=%v)", name, trial, res.Model, c, err)
					}
				}
			}
		}
		want := verdicts[BackendInterval]
		for _, got := range verdicts {
			if got != want {
				t.Fatalf("trial %d: backend verdicts diverge (%v) for %v", trial, verdicts, cs)
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	x := sym.V("X")
	allBackends(t, Options{Domains: domains("X")}, func(t *testing.T, b Backend) {
		b.Push()
		b.Assert(sym.Cmp(sym.OpGE, x, sym.Int(1)))
		b.Check()
		b.Pop()
		st := b.Stats()
		if st.Backend == "" {
			t.Error("stats must name the backend")
		}
		if st.Checks != 1 || st.Asserts != 1 || st.PushedFrames != 1 || st.PoppedFrames != 1 {
			t.Errorf("stats = %+v, want 1 check/assert/push/pop", st)
		}
		b.ResetStats()
		if st := b.Stats(); st.Checks != 0 || st.Backend == "" {
			t.Errorf("ResetStats must zero counters but keep the name, got %+v", st)
		}
	})
}

func TestCapsReporting(t *testing.T) {
	cases := map[string]Caps{
		BackendInterval:        {Name: BackendInterval, PrefixReuse: true},
		BackendIntervalNoReuse: {Name: BackendIntervalNoReuse},
		BackendBitvec:          {Name: BackendBitvec, PrefixReuse: true, Wraparound: true, Bitwise: true},
	}
	for name, want := range cases {
		b := mustBackend(t, name, Options{})
		if got := b.Caps(); got != want {
			t.Errorf("%s caps = %+v, want %+v", name, got, want)
		}
	}
}

func TestPrefixCacheEviction(t *testing.T) {
	cache := NewPrefixCache(2)
	keys := make([]prefixKey, 3)
	for i := range keys {
		keys[i] = prefixKey{}.extend(fmt.Sprintf("k%d", i))
		cache.put(keys[i], prefixEntry{res: &Result{Sat: true}})
	}
	if _, ok := cache.get(keys[0]); ok {
		t.Error("oldest entry must be evicted at capacity 2")
	}
	if _, ok := cache.get(keys[2]); !ok {
		t.Error("newest entry must survive")
	}
	st := cache.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

func TestPrefixCacheUpgradeOnly(t *testing.T) {
	// A box-only write must not erase a known verdict.
	key := prefixKey{}.extend("p")
	cache := NewPrefixCache(4)
	res := &Result{Sat: true}
	box := func(hi int64) *solver.Box {
		return solver.NewIndexed(solver.Options{}, map[string]solver.Interval{"X": {Lo: 0, Hi: hi}}).Base()
	}
	cache.put(key, prefixEntry{res: res, box: box(5)})
	cache.put(key, prefixEntry{box: box(9)})
	ent, ok := cache.get(key)
	if !ok || ent.res != res {
		t.Error("verdict must survive a box-only upgrade attempt")
	}
}

// TestStatsAddCoversEveryCounter guards the per-worker stats merge with
// reflection: every numeric field of Stats must survive Add, so a future
// counter added to the struct but forgotten in Add fails here instead of
// silently under-reporting in merged parallel-run stats.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var a, b Stats
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int {
			continue
		}
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int {
			continue
		}
		want := int64(i+1) + int64(100*(i+1))
		if got := av.Field(i).Int(); got != want {
			t.Errorf("Stats.Add drops field %s: got %d, want %d",
				av.Type().Field(i).Name, got, want)
		}
	}
}

// TestPrefixKeyFingerprintChaining pins the fingerprint-keyed prefix chain:
// rebuilding the same constraint sequence (hash-consed, so the same nodes)
// chains the same key, different sequences diverge, order matters, and
// structurally distinct constraints that render to the same string — a
// variable named like a literal — no longer share a key the way the old
// rendering-based chain did.
func TestPrefixKeyFingerprintChaining(t *testing.T) {
	c1 := sym.Cmp(sym.OpGT, sym.V("X"), sym.Zero)
	c2 := sym.Cmp(sym.OpLE, sym.V("Y"), sym.Int(5))
	seed := prefixKey{}

	a := seed.extendFP(sym.Fingerprints(c1)).extendFP(sym.Fingerprints(c2))
	b := seed.extendFP(sym.Fingerprints(sym.Cmp(sym.OpGT, sym.V("X"), sym.Zero))).
		extendFP(sym.Fingerprints(sym.Cmp(sym.OpLE, sym.V("Y"), sym.Int(5))))
	if a != b {
		t.Fatalf("rebuilt constraint sequence chained a different key")
	}
	if rev := seed.extendFP(sym.Fingerprints(c2)).extendFP(sym.Fingerprints(c1)); rev == a {
		t.Fatalf("assertion order does not influence the key")
	}
	if one := seed.extendFP(sym.Fingerprints(c1)); one == a {
		t.Fatalf("prefix of a chain collides with the chain")
	}

	// "X == 5" the constant vs "X == 5" the variable named "5": identical
	// renderings, distinct structures, distinct fingerprints.
	asConst := sym.Cmp(sym.OpEQ, sym.V("X"), sym.Int(5))
	asVar := sym.Cmp(sym.OpEQ, sym.V("X"), sym.V("5"))
	if asConst.String() != asVar.String() {
		t.Fatalf("test premise broken: renderings differ (%q vs %q)", asConst, asVar)
	}
	if seed.extendFP(sym.Fingerprints(asConst)) == seed.extendFP(sym.Fingerprints(asVar)) {
		t.Fatalf("same-rendering constraints share a fingerprint key")
	}
}
