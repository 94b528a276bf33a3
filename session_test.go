package dise

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dise/internal/artifacts"
)

// chainSources returns the version-chain sources of one artifact:
// base, v1, v2, ... in catalog order.
func chainSources(art artifacts.Artifact) []string {
	out := []string{art.Base}
	for _, v := range art.Versions {
		out = append(out, art.SourceFor(v))
	}
	return out
}

// coldResult is the comparable projection of a Result: everything a cold
// Analyze and a warm Session.Advance must agree on byte for byte. The
// solver/memo observability blocks and wall-clock time are excluded — they
// describe how the answer was computed, not the answer.
type comparableResult struct {
	Paths                    []PathInfo
	ChangedNodes             int
	AffectedConditionalLines []int
	AffectedWriteLines       []int
	StatesExplored           int
	PathConditions           int
	InfeasibleBranches       int
}

func comparable(r *Result) comparableResult {
	return comparableResult{
		Paths:                    r.Paths,
		ChangedNodes:             r.ChangedNodes,
		AffectedConditionalLines: r.AffectedConditionalLines,
		AffectedWriteLines:       r.AffectedWriteLines,
		StatesExplored:           r.Stats.StatesExplored,
		PathConditions:           r.Stats.PathConditions,
		InfeasibleBranches:       r.Stats.InfeasibleBranches,
	}
}

// TestSessionMatchesColdAnalyzeOnArtifacts is the exactness gate of the
// version-chain session: over the full evolution chains of all three
// artifacts (40 chain steps), the warm Session.Advance result is
// byte-identical to a cold pairwise Analyze of the same version pair on a
// fresh Analyzer — and the warm chain really is warm (trie reuse from the
// second step on).
func TestSessionMatchesColdAnalyzeOnArtifacts(t *testing.T) {
	ctx := context.Background()
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			t.Parallel()
			warm, cold := NewAnalyzer(), NewAnalyzer()
			srcs := chainSources(art)
			sess, err := warm.NewSession(ctx, SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(srcs); i++ {
				warmRes, err := sess.Advance(ctx, srcs[i])
				if err != nil {
					t.Fatalf("step %d: warm Advance: %v", i, err)
				}
				coldRes, err := cold.Analyze(ctx, Request{BaseSrc: srcs[i-1], ModSrc: srcs[i], Proc: art.Proc})
				if err != nil {
					t.Fatalf("step %d: cold Analyze: %v", i, err)
				}
				if got, want := comparable(warmRes), comparable(coldRes); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s): warm session diverged from cold analysis\nwarm: %+v\ncold: %+v",
						i, art.Versions[i-1].Name, got, want)
				}
				m := warmRes.Stats.Memo
				if !m.Enabled || m.Step != i {
					t.Fatalf("step %d: memo stats not populated: %+v", i, m)
				}
				if i > 1 && m.StatesReplayed == 0 {
					t.Errorf("step %d (%s): warm chain replayed no recorded states: %+v",
						i, art.Versions[i-1].Name, m)
				}
			}
		})
	}
}

// TestSessionNoOpEditFastPath pins the degenerate-edit behavior: advancing
// to a version whose only difference is whitespace (identical AST) must
// invalidate nothing, make zero solver checks, expand no state live — and
// must leave the trie intact so a later real change still replays from it.
// TestSessionRejectsStateMerging pins the incompatibility of the two reuse
// mechanisms: a merging Analyzer cannot open a version-chain session — the
// memo trie is keyed by per-path conjunctions, which merging replaces with
// factored disjunctions — and the rejection happens at construction time
// with Kind InvalidConfig, even when SkipSeed defers the first engine build.
func TestSessionRejectsStateMerging(t *testing.T) {
	art, _ := artifacts.ByName("WBS")
	for _, skipSeed := range []bool{false, true} {
		a := NewAnalyzer(WithStateMerging(MergeUnbounded))
		_, err := a.NewSession(context.Background(), SessionRequest{
			InitialSrc: art.Base, Proc: art.Proc, SkipSeed: skipSeed,
		})
		if KindOf(err) != InvalidConfig {
			t.Errorf("SkipSeed=%v: NewSession error = %v, want Kind InvalidConfig", skipSeed, err)
		}
	}
	// One-shot Analyze on the same Analyzer remains usable.
	a := NewAnalyzer(WithStateMerging(MergeUnbounded))
	mod := art.SourceFor(art.Versions[0])
	if _, err := a.Analyze(context.Background(), Request{BaseSrc: art.Base, ModSrc: mod, Proc: art.Proc}); err != nil {
		t.Fatalf("merging Analyze: %v", err)
	}
}

func TestSessionNoOpEditFastPath(t *testing.T) {
	art, _ := artifacts.ByName("WBS")
	ctx := context.Background()
	a := NewAnalyzer()
	sess, err := a.NewSession(ctx, SessionRequest{InitialSrc: art.Base, Proc: art.Proc})
	if err != nil {
		t.Fatal(err)
	}

	v1 := art.SourceFor(art.Versions[0])
	res1, err := sess.Advance(ctx, v1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Solver.Checks == 0 {
		t.Fatalf("step 1 made no solver checks; the no-op step would be vacuous")
	}

	// Whitespace-only edit: same AST, so the diff proves every statement
	// unchanged and the affected sets are empty.
	noop := strings.ReplaceAll(v1, ";", " ;") + "\n\n"
	res2, err := sess.Advance(ctx, noop)
	if err != nil {
		t.Fatal(err)
	}
	m := res2.Stats.Memo
	if m.NodesInvalidated != 0 {
		t.Errorf("no-op edit invalidated %d trie nodes", m.NodesInvalidated)
	}
	if res2.Stats.Solver.Checks != 0 {
		t.Errorf("no-op edit made %d solver checks, want 0", res2.Stats.Solver.Checks)
	}
	if m.StatesExploredLive != 0 {
		t.Errorf("no-op edit explored %d states live, want 0 (100%% replay): %+v", m.StatesExploredLive, m)
	}
	if len(res2.Paths) != 0 || res2.ChangedNodes != 0 {
		t.Errorf("no-op edit reported changes: %d paths, %d changed nodes", len(res2.Paths), res2.ChangedNodes)
	}

	// A real change after the no-op step must still replay recorded verdicts:
	// the fast path must not have damaged the trie.
	res3, err := sess.Advance(ctx, art.SourceFor(art.Versions[1]))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.Memo.MemoHits == 0 {
		t.Errorf("step after no-op edit reused no verdicts: %+v", res3.Stats.Memo)
	}
}

// TestSessionPrefixCacheSurvivesSteps pins the cross-step half of the
// constraint subsystem's reuse: the session's steps all run against the
// owning Analyzer's shared solved-prefix cache, whose keys are constraint
// content (not program version), so live re-solves in step N hit prefixes
// solved in step N-1.
func TestSessionPrefixCacheSurvivesSteps(t *testing.T) {
	art, _ := artifacts.ByName("WBS")
	ctx := context.Background()
	a := NewAnalyzer()
	srcs := chainSources(art)
	sess, err := a.NewSession(ctx, SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(ctx, srcs[1]); err != nil {
		t.Fatal(err)
	}
	afterFirst := a.SolverCacheStats().Hits
	for i := 2; i < len(srcs); i++ {
		if _, err := sess.Advance(ctx, srcs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if hits := a.SolverCacheStats().Hits; hits <= afterFirst {
		t.Errorf("prefix cache hits did not grow across session steps: %d after step 1, %d at end",
			afterFirst, hits)
	}
}

// TestSessionInputChangeInvalidates pins the whole-trie invalidation rule:
// an edit that changes the symbolic inputs (here: a new parameter) drops
// every recorded node instead of replaying against incomparable domains.
func TestSessionInputChangeInvalidates(t *testing.T) {
	base := `
proc p(int x) {
  if (x > 3) { x = x + 1; } else { x = 0; }
  if (x > 10) { x = 2; }
}`
	v1 := strings.Replace(base, "x > 3", "x > 4", 1)
	v2 := strings.Replace(strings.Replace(base, "int x", "int x, int y", 1), "x > 3", "x > 5", 1)

	ctx := context.Background()
	a := NewAnalyzer()
	sess, err := a.NewSession(ctx, SessionRequest{InitialSrc: base, Proc: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(ctx, v1); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Advance(ctx, v2)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Stats.Memo
	if m.NodesKept != 0 || m.MemoHits != 0 {
		t.Errorf("trie survived a symbolic-input change: %+v", m)
	}
	if m.NodesInvalidated == 0 {
		t.Errorf("input change invalidated nothing: %+v", m)
	}
}
