package constraint

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"dise/internal/solver"
	"dise/internal/sym"
)

// These tests pin the Unknown-result contract of the subsystem: budget
// exhaustion and interrupts yield Unknown (never Sat, never a panic), the
// semantics are identical across every backend, and Unknown verdicts are
// never memoized or shared through the prefix cache — a later Check with
// breathing room must still be able to find the real answer.

// hardConstraints is a conjunction no backend decides without search: the
// product of two inputs equals a prime, so propagation/refinement cannot
// finish and the search must split wide domains.
func hardConstraints() []sym.Expr {
	x, y := sym.V("X"), sym.V("Y")
	return []sym.Expr{
		sym.Cmp(sym.OpEQ, sym.Mul(x, y), sym.Int(999_983)),
		sym.Cmp(sym.OpGT, x, sym.One),
		sym.Cmp(sym.OpGT, y, sym.One),
	}
}

func TestUnknownSemanticsAcrossBackends(t *testing.T) {
	doms := domains("X", "Y")
	interrupted := errors.New("interrupted")
	cases := []struct {
		name string
		opts Options
	}{
		{"budget exhaustion", Options{Domains: doms, NodeBudget: 1}},
		{"interrupt", Options{Domains: doms, Interrupt: func() error { return interrupted }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, name := range Names() {
				t.Run(name, func(t *testing.T) {
					b := mustBackend(t, name, tc.opts)
					b.Push()
					for _, c := range hardConstraints() {
						b.Assert(c)
					}
					res := b.Check()
					if !res.Unknown {
						t.Fatalf("result %+v, want Unknown", res)
					}
					if res.Sat || res.Model != nil {
						t.Errorf("Unknown must not claim sat or carry a model: %+v", res)
					}
					// The caller contract: Unknown is treated as unsat, i.e.
					// !res.Sat — verify the field every caller branches on.
					if res.Sat {
						t.Error("callers prune on !Sat; Unknown must present as not-Sat")
					}
				})
			}
		})
	}
}

func TestUnknownNotCachedOrMemoized(t *testing.T) {
	// Same stack, same backend instance: an Unknown under a tiny budget must
	// not be replayed from a memo. (The budget is per-Check, so a repeat
	// Check has fresh budget; with memoization it would wrongly return the
	// stale Unknown; with a poisoned shared cache a second engine would too.)
	cache := NewPrefixCache(64)
	// Small domains so the full-budget solve terminates: X*Y == 97 (prime)
	// with X,Y > 1 is unsat and decidable by bounded search, but still needs
	// more than one search node — a budget of 1 yields Unknown.
	doms := map[string]solver.Interval{
		"X": {Lo: 0, Hi: 100},
		"Y": {Lo: 0, Hi: 100},
	}
	x, y := sym.V("X"), sym.V("Y")
	cons := []sym.Expr{
		sym.Cmp(sym.OpEQ, sym.Mul(x, y), sym.Int(97)),
		sym.Cmp(sym.OpGT, x, sym.One),
		sym.Cmp(sym.OpGT, y, sym.One),
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			tiny := mustBackend(t, name, Options{Domains: doms, NodeBudget: 1, Cache: cache})
			tiny.Push()
			for _, c := range cons {
				tiny.Assert(c)
			}
			if res := tiny.Check(); !res.Unknown {
				t.Fatalf("tiny budget must be Unknown, got %+v", res)
			}
			// A fresh backend with a real budget sharing the same cache must
			// decide the same stack for real.
			big := mustBackend(t, name, Options{Domains: doms, Cache: cache})
			big.Push()
			for _, c := range cons {
				big.Assert(c)
			}
			res := big.Check()
			if res.Unknown {
				t.Fatalf("real budget must decide the stack, got Unknown (cache poisoned?)")
			}
			if res.Sat {
				t.Errorf("X*Y == prime with X,Y > 1 must be unsat, got %+v", res)
			}
		})
	}
}

func TestInterruptMidStack(t *testing.T) {
	// Flip the interrupt on after the prefix is solved: the prefix's cached
	// state must not let the interrupted Check return a stale verdict of a
	// DIFFERENT stack.
	doms := domains("X", "Y")
	stop := false
	interrupt := func() error {
		if stop {
			return errors.New("cancelled")
		}
		return nil
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b := mustBackend(t, name, Options{Domains: doms, Interrupt: interrupt})
			stop = false
			b.Push()
			b.Assert(sym.Cmp(sym.OpGE, sym.V("X"), sym.Int(3)))
			if !b.Check().Sat {
				t.Fatal("prefix must be sat")
			}
			stop = true
			b.Push()
			for _, c := range hardConstraints() {
				b.Assert(c)
			}
			res := b.Check()
			if res.Sat {
				t.Errorf("interrupted hard Check must not be sat: %+v", res)
			}
			if !res.Unknown {
				t.Errorf("interrupted Check must be Unknown, got %+v", res)
			}
		})
	}
}

func TestConcurrentBackendsSharedCache(t *testing.T) {
	// Race check (run under -race in CI): many goroutines, each with its own
	// backend, hammer one shared PrefixCache with overlapping prefixes. Each
	// stack is four frames deep and checked at every depth; its frames mix
	// ones that tighten the box (X, Y), one that shares its parent's box
	// (Y >= 0) and one whose atom stays residual (X + Z != k), so workers
	// build on boxes, residuals and models other workers put in the cache.
	// Every verdict and model must equal a single-goroutine run's.
	cache := NewPrefixCache(128)
	doms := map[string]solver.Interval{"X": solver.DefaultDomain, "Y": solver.DefaultDomain, "Z": {Lo: 0, Hi: 50}}
	x, y, z := sym.V("X"), sym.V("Y"), sym.V("Z")
	const stacks = 50
	stack := func(i int) []sym.Expr {
		return []sym.Expr{
			sym.Cmp(sym.OpGE, x, sym.Int(int64(i%5))),
			sym.Cmp(sym.OpLE, y, sym.Int(int64(100+i%7))),
			sym.Cmp(sym.OpGE, y, sym.Zero),
			sym.Cmp(sym.OpNE, sym.Add(x, z), sym.Int(int64(i%11))),
		}
	}
	run := func(b Backend, i int) []Result {
		var out []Result
		for _, c := range stack(i) {
			b.Push()
			b.Assert(c)
			out = append(out, b.Check())
		}
		for range out {
			b.Pop()
		}
		return out
	}
	ref := mustBackend(t, BackendInterval, Options{Domains: doms, Cache: NewPrefixCache(128)})
	want := make([][]Result, stacks)
	for i := range want {
		want[i] = run(ref, i)
		for depth, res := range want[i] {
			if !res.Sat {
				t.Fatalf("stack %d depth %d: must be sat", i, depth)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			b, err := New(BackendInterval, Options{Domains: doms, Cache: cache})
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < stacks; k++ {
				i := (k + 7*worker) % stacks
				if got := run(b, i); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d stack %d: %+v, single-goroutine run %+v", worker, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if st := cache.Stats(); st.Hits == 0 {
		t.Error("concurrent workers must share prefix work through the cache")
	}
}
