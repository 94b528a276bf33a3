package dise

import (
	"testing"

	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/randprog"
	"dise/internal/symexec"
)

// TestLoopModeRandomPrograms fuzzes the directed search on random programs
// WITH bounded loops. The paper's exact guarantees are scoped to loop-free
// code (its artifacts have no loops, §4.1); for loops the implementation
// promises the sound direction only:
//
//   - every DiSE path is a real feasible path: its affected sequence is a
//     prefix of some full-SE sequence;
//   - DiSE never explores more states than full symbolic execution;
//   - when full symbolic execution found affected behaviors and the change
//     is reachable, DiSE reports at least one path.
func TestLoopModeRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("loop fuzzing skipped in -short mode")
	}
	const trials = 80
	covered := 0
	for seed := int64(0); seed < trials; seed++ {
		gen := randprog.New(seed, randprog.Config{MaxStmts: 4, MaxDepth: 2, Loops: true})
		baseProg := gen.Program()
		mutant, descs := gen.Mutate(baseProg, 2)
		modSrc := ast.Pretty(mutant)
		modProg, err := parser.Parse(modSrc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		baseSrc := ast.Pretty(baseProg)
		baseProg, err = parser.Parse(baseSrc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		config := symexec.Config{DepthBound: 250, MaxStates: 200_000}
		res, err := Analyze(baseProg, modProg, "p", config)
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v\n%s", seed, err, modSrc)
		}
		fullEngine, err := symexec.New(modProg, "p", config)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full := fullEngine.RunFull()
		if full.Stats.MaxStatesHit {
			continue // state space too large to compare meaningfully
		}

		fullSeqs := map[string][]int{}
		for _, p := range full.Paths {
			seq := res.Affected.AffectedSequence(p.Trace)
			if len(seq) > 0 {
				fullSeqs[SequenceKey(seq)] = seq
			}
		}
		// Soundness: DiSE sequences are prefixes of full sequences.
		for _, p := range res.Summary.Paths {
			seq := res.Affected.AffectedSequence(p.Trace)
			matched := false
			for _, fullSeq := range fullSeqs {
				if isPrefix(seq, fullSeq) {
					matched = true
					break
				}
			}
			if !matched {
				t.Fatalf("seed %d (%v): DiSE sequence %s not a prefix of any full sequence\nbase:\n%s\nmod:\n%s",
					seed, descs, SequenceKey(seq), baseSrc, modSrc)
			}
		}
		// Cost: never more states than full exploration.
		if res.Summary.Stats.StatesExplored > full.Stats.StatesExplored {
			t.Fatalf("seed %d: DiSE states %d > full %d\n%s",
				seed, res.Summary.Stats.StatesExplored, full.Stats.StatesExplored, modSrc)
		}
		// Liveness: affected behaviors found by full SE imply DiSE found
		// something.
		if len(fullSeqs) > 0 && len(res.Summary.Paths) == 0 {
			t.Fatalf("seed %d (%v): full SE has %d affected sequences, DiSE found none\nbase:\n%s\nmod:\n%s",
				seed, descs, len(fullSeqs), baseSrc, modSrc)
		}
		if len(fullSeqs) > 0 {
			covered++
		}
	}
	if covered < trials/4 {
		t.Fatalf("only %d/%d trials exercised affected loop behavior; generator too weak", covered, trials)
	}
}
