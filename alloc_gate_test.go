package dise

import (
	"context"
	"testing"

	"dise/internal/artifacts"
)

// Allocation gates: heap objects per explored state on the three OAE runs
// the benchmark's chain and pairwise workloads are made of. Each figure is
// the measured value with 10% headroom, so a change that puts allocations
// back on the per-state path (a list cell, a successor slice, a state, a
// trie rebuild) fails here before it shows up as GC time. A change that
// lowers a figure should lower its gate with it.
const (
	// seedObjectsPerState gates NewSession's seeding run: full symbolic
	// execution of OAE's base version recording the memo trie (parse and
	// CFG included), over its 33,790 states. Measured 2.359.
	seedObjectsPerState = 2.59
	// analyzeObjectsPerState gates one cold Analyze of OAE v1 plus Tests,
	// over its 8,452 states. Measured 2.812.
	analyzeObjectsPerState = 3.09
	// advanceObjectsPerState gates the eight Advance calls of the OAE chain
	// after the seed, over their 60,600 states. Measured 1.491.
	advanceObjectsPerState = 1.64
)

func TestAllocsPerExploredState(t *testing.T) {
	art, _ := artifacts.ByName("OAE")
	srcs := chainSources(art)
	ctx := context.Background()
	const runs = 2

	seedStates := 0
	seed := func() *Session {
		a := NewAnalyzer()
		sess, err := a.NewSession(ctx, SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	if sum, err := NewAnalyzer().Execute(ctx, srcs[0], art.Proc); err != nil {
		t.Fatal(err)
	} else {
		seedStates = sum.Stats.StatesExplored
	}
	seedAllocs := testing.AllocsPerRun(runs, func() { seed() })

	advanceStates := 0
	chainAllocs := testing.AllocsPerRun(runs, func() {
		sess := seed()
		advanceStates = 0
		for _, src := range srcs[1:] {
			res, err := sess.Advance(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			advanceStates += res.Stats.StatesExplored
		}
	})

	analyzeStates := 0
	analyzeAllocs := testing.AllocsPerRun(runs, func() {
		res, err := NewAnalyzer().Analyze(ctx, Request{BaseSrc: srcs[0], ModSrc: srcs[1], Proc: art.Proc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Tests(); err != nil {
			t.Fatal(err)
		}
		analyzeStates = res.Stats.StatesExplored
	})

	for _, g := range []struct {
		name    string
		objects float64
		states  int
		gate    float64
	}{
		{"seed", seedAllocs, seedStates, seedObjectsPerState},
		{"analyze+tests", analyzeAllocs, analyzeStates, analyzeObjectsPerState},
		{"advances", chainAllocs - seedAllocs, advanceStates, advanceObjectsPerState},
	} {
		perState := g.objects / float64(g.states)
		t.Logf("%s: %.0f objects over %d states, %.3f per state (gate %.3f)", g.name, g.objects, g.states, perState, g.gate)
		if perState > g.gate {
			t.Errorf("%s allocates %.3f objects per explored state, over its gate of %.3f", g.name, perState, g.gate)
		}
	}
}
