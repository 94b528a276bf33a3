package dise

// Verdict equivalence of bounded state merging over the paper's artifacts:
// merging intentionally coarsens HOW paths are enumerated (sibling states
// fuse at joins, path conditions arrive factored through disjunctions), so
// unlike the solver backends it is NOT held to byte-identical path sets.
// The gate it ships under instead (ROADMAP "merging/summarization mode"):
//
//   - identical affected-branch coverage — the set of affected CFG nodes
//     (ACN ∪ AWN) covered by the reported paths' Trace ∪ Cover matches the
//     unmerged run's exactly, on every version of ASW, WBS and OAE;
//   - identical per-branch testgen feasibility — every reported path, merged
//     or not, re-solves Sat (no merged disjunction may go
//     Unknown-infeasible where the per-path run was feasible), and the
//     witness its test renders satisfies every conjunct of its condition,
//     ite conjuncts included;
//   - identical error-path presence under full symbolic execution.

import (
	"context"
	"testing"

	"dise/internal/artifacts"
	"dise/internal/solver"
	"dise/internal/symexec"
)

// coveredAffected projects a DiSE result onto the verdict the gate compares:
// the affected nodes its paths actually covered (Trace ∪ Cover, so merged
// constituents count), plus whether any path violated an assertion.
func coveredAffected(res *Result) (cov map[int]bool, anyErr bool) {
	cov = map[int]bool{}
	aff := res.internal.Affected
	for _, p := range res.internal.Summary.Paths {
		for _, id := range p.Trace {
			if aff.Contains(id) {
				cov[id] = true
			}
		}
		for _, id := range p.Cover {
			if aff.Contains(id) {
				cov[id] = true
			}
		}
		anyErr = anyErr || p.Err
	}
	return cov, anyErr
}

func equalNodeSets(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// TestMergedDiseVerdictEquivalenceOnArtifacts is the acceptance gate of the
// tentpole: over all 40 artifact versions, a merged DiSE run covers exactly
// the affected branches the unmerged run covers, agrees on assertion
// violations, and every one of its factored path conditions remains solvable
// and is satisfied by the witness its concrete test renders.
func TestMergedDiseVerdictEquivalenceOnArtifacts(t *testing.T) {
	ctx := context.Background()
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			cold := NewAnalyzer()
			merged := NewAnalyzer(WithStateMerging(MergeUnbounded))
			for _, v := range art.Versions {
				v := v
				t.Run(v.Name, func(t *testing.T) {
					modSrc := art.SourceFor(v)
					req := Request{BaseSrc: art.Base, ModSrc: modSrc, Proc: art.Proc}
					want, err := cold.Analyze(ctx, req)
					if err != nil {
						t.Fatalf("unmerged analyze: %v", err)
					}
					got, err := merged.Analyze(ctx, req)
					if err != nil {
						t.Fatalf("merged analyze: %v", err)
					}

					wantCov, wantErr := coveredAffected(want)
					gotCov, gotErr := coveredAffected(got)
					if !equalNodeSets(wantCov, gotCov) {
						t.Errorf("affected-branch coverage differs: unmerged covers %d affected nodes, merged %d",
							len(wantCov), len(gotCov))
					}
					if wantErr != gotErr {
						t.Errorf("assertion-violation presence differs: unmerged %v, merged %v", wantErr, gotErr)
					}
					if len(got.Paths) > len(want.Paths) {
						t.Errorf("merged run reports %d paths, unmerged %d — merging must never add paths",
							len(got.Paths), len(want.Paths))
					}

					// Per-branch testgen feasibility: each reported path —
					// including those whose conditions carry ite/disjunction
					// conjuncts — must re-solve Sat, and its witness, which
					// its test renders, must satisfy every conjunct.
					engine, err := symexec.New(art.ProgramFor(v), art.Proc, symexec.Config{})
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range got.internal.Summary.Paths {
						if res := engine.CheckPC(p.PC); !res.Sat {
							t.Errorf("merged path condition %q re-solves %+v — a factored disjunction went infeasible", p.PCString, res)
						}
						for _, c := range p.PC {
							if val, err := solver.EvalInt01(c, p.Witness); err != nil || val == 0 {
								t.Errorf("witness %v of %q violates %v (err=%v)", p.Witness, p.PCString, c, err)
							}
						}
					}
					tests, err := got.Tests()
					if err != nil {
						t.Fatalf("merged testgen: %v", err)
					}
					if len(tests) != len(got.Paths) {
						t.Errorf("merged testgen rendered %d tests for %d path conditions", len(tests), len(got.Paths))
					}
					if got.Stats.Merge.Merges > 0 && got.Stats.Merge.IteNodes == 0 &&
						got.Stats.Merge.MergedStatesSaved == 0 {
						t.Errorf("merge stats inconsistent: %+v", got.Stats.Merge)
					}
				})
			}
		})
	}
}

// TestMergedFullSEEquivalenceOnArtifacts checks the full-symbolic-execution
// side of the gate on each artifact's base version, at an unbounded and a
// chunked bound: node coverage and error-path presence match the per-path
// run, states explored never grow, and on OAE — the benchmark the mode
// exists for (9216 paths per full run) — the collapse is at least 3x.
func TestMergedFullSEEquivalenceOnArtifacts(t *testing.T) {
	ctx := context.Background()
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			full, err := NewAnalyzer().Execute(ctx, art.Base, art.Proc)
			if err != nil {
				t.Fatal(err)
			}
			wantCov, wantErrs := fullCoverage(full)
			for _, bound := range []int{MergeUnbounded, 2} {
				merged, err := NewAnalyzer(WithStateMerging(bound)).Execute(ctx, art.Base, art.Proc)
				if err != nil {
					t.Fatalf("bound %d: %v", bound, err)
				}
				gotCov, gotErrs := fullCoverage(merged)
				if !equalNodeSets(wantCov, gotCov) {
					t.Errorf("bound %d: covered-node sets differ (full %d nodes, merged %d)",
						bound, len(wantCov), len(gotCov))
				}
				if wantErrs != gotErrs {
					t.Errorf("bound %d: error-path presence differs: full %v, merged %v", bound, wantErrs, gotErrs)
				}
				if merged.Stats.StatesExplored > full.Stats.StatesExplored {
					t.Errorf("bound %d: merged explored %d states, full %d — merging must not grow the search",
						bound, merged.Stats.StatesExplored, full.Stats.StatesExplored)
				}
				if art.Name == "OAE" && bound == MergeUnbounded &&
					3*merged.Stats.StatesExplored > full.Stats.StatesExplored {
					t.Errorf("OAE full SE: merged %d states vs %d, want >= 3x collapse",
						merged.Stats.StatesExplored, full.Stats.StatesExplored)
				}
			}
		})
	}
}

func fullCoverage(s *Summary) (cov map[int]bool, anyErr bool) {
	cov = map[int]bool{}
	for _, p := range s.summary.Paths {
		for _, id := range p.Trace {
			cov[id] = true
		}
		for _, id := range p.Cover {
			cov[id] = true
		}
		anyErr = anyErr || p.Err
	}
	return cov, anyErr
}

// TestMergeUnboundedConstant pins the facade re-export against the engine's
// sentinel, so flag parsing in the commands can rely on either name.
func TestMergeUnboundedConstant(t *testing.T) {
	if MergeUnbounded != symexec.MergeUnbounded {
		t.Fatalf("MergeUnbounded = %d, want symexec's %d", MergeUnbounded, symexec.MergeUnbounded)
	}
	if MergeUnbounded != -1 {
		t.Fatalf("MergeUnbounded = %d, want -1", MergeUnbounded)
	}
}
