package dise

// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablation and component benchmarks. Mapping:
//
//	BenchmarkFig1TestXTree        — Fig. 1 symbolic execution tree
//	BenchmarkFig2MotivatingFull   — §2.2: 21 path conditions (full SE)
//	BenchmarkFig2MotivatingDiSE   — §2.2 / Table 1: 7 path conditions (DiSE)
//	BenchmarkTable2aASW           — Table 2(a): all 15 ASW versions
//	BenchmarkTable2bWBS           — Table 2(b): all 16 WBS versions
//	BenchmarkTable2cOAE           — Table 2(c): OAE v1 (the full 9-version
//	                                table is regenerated by dise tables;
//	                                one wide version keeps bench time sane)
//	BenchmarkTable3a/b/cSelection — Table 3: test selection + augmentation
//	BenchmarkAblation*            — design-choice ablations
//	Benchmark<component>          — parser, CFG analyses, solver, engines

import (
	"context"
	"testing"

	"dise/internal/artifacts"
	"dise/internal/cfg"
	idise "dise/internal/dise"
	"dise/internal/evaluation"
	"dise/internal/lang/parser"
	"dise/internal/solver"
	"dise/internal/sym"
	"dise/internal/symexec"
	"dise/internal/testgen"
)

const benchTestX = `
int y = 0;
proc testX(int x) {
  if (x > 0) {
    y = y + x;
  } else {
    y = y - x;
  }
}
`

// --- figures -----------------------------------------------------------------

func BenchmarkFig1TestXTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewAnalyzer().ExecutionTree(context.Background(), benchTestX, "testX"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MotivatingFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, err := NewAnalyzer().Execute(context.Background(), modUpdate, "update")
		if err != nil {
			b.Fatal(err)
		}
		if len(sum.Paths) != 21 {
			b.Fatalf("paths = %d, want 21", len(sum.Paths))
		}
	}
}

func BenchmarkFig2MotivatingDiSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := NewAnalyzer().Analyze(context.Background(),
			Request{BaseSrc: baseUpdate, ModSrc: modUpdate, Proc: "update"})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Paths) != 7 {
			b.Fatalf("paths = %d, want 7", len(res.Paths))
		}
	}
}

// --- Table 2 -----------------------------------------------------------------

func benchTable2(b *testing.B, name string) {
	b.Helper()
	a, ok := artifacts.ByName(name)
	if !ok {
		b.Fatal("unknown artifact")
	}
	for i := 0; i < b.N; i++ {
		res, err := evaluation.Run(a, symexec.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if issues := res.CheckShape(); len(issues) != 0 {
			b.Fatalf("shape violations: %v", issues)
		}
	}
}

func BenchmarkTable2aASW(b *testing.B) { benchTable2(b, "ASW") }
func BenchmarkTable2bWBS(b *testing.B) { benchTable2(b, "WBS") }

// BenchmarkTable2cOAE benchmarks one wide OAE version (v1) — full SE vs
// DiSE — rather than the whole 9-version table, which dise tables
// regenerates in about half a minute.
func BenchmarkTable2cOAE(b *testing.B) {
	a, _ := artifacts.ByName("OAE")
	v, _ := a.Find("v1")
	baseProg := a.BaseProgram()
	modProg := a.ProgramFor(v)
	b.Run("Full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine, err := symexec.New(modProg, a.Proc, symexec.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if got := len(engine.RunFull().Paths); got != 9216 {
				b.Fatalf("paths = %d, want 9216", got)
			}
		}
	})
	b.Run("DiSE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := idise.Analyze(baseProg, modProg, a.Proc, symexec.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if got := len(res.Summary.Paths); got != 2304 {
				b.Fatalf("paths = %d, want 2304", got)
			}
		}
	})
}

// --- Table 3 -----------------------------------------------------------------

// benchTable3 measures the regression-testing workflow of §5.2 on one
// version: base suite generation, DiSE, test generation, selection.
func benchTable3(b *testing.B, name, version string) {
	b.Helper()
	a, _ := artifacts.ByName(name)
	v, ok := a.Find(version)
	if !ok {
		b.Fatal("unknown version")
	}
	for i := 0; i < b.N; i++ {
		baseEngine, err := symexec.New(a.BaseProgram(), a.Proc, symexec.Config{})
		if err != nil {
			b.Fatal(err)
		}
		baseSuite := testgen.NewGenerator(baseEngine).Generate(baseEngine.RunFull())

		modProg := a.ProgramFor(v)
		res, err := idise.Analyze(a.BaseProgram(), modProg, a.Proc, symexec.Config{})
		if err != nil {
			b.Fatal(err)
		}
		diseEngine, err := symexec.New(modProg, a.Proc, symexec.Config{})
		if err != nil {
			b.Fatal(err)
		}
		diseTests := testgen.NewGenerator(diseEngine).Generate(res.Summary)
		sel := testgen.SelectAugment(baseSuite, diseTests)
		if sel.Total() != len(diseTests) {
			b.Fatal("selection lost tests")
		}
	}
}

func BenchmarkTable3aASWSelection(b *testing.B) { benchTable3(b, "ASW", "v6") }
func BenchmarkTable3bWBSSelection(b *testing.B) { benchTable3(b, "WBS", "v6") }
func BenchmarkTable3cOAESelection(b *testing.B) { benchTable3(b, "OAE", "v4") }

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationDomain compares the Choco-like non-negative input domain
// against a full signed range on the motivating example: the domain choice
// changes feasible path counts (21 vs 24) and solver work.
func BenchmarkAblationDomain(b *testing.B) {
	b.Run("NonNegativeDefault", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum, err := NewAnalyzer().Execute(context.Background(), modUpdate, "update")
			if err != nil {
				b.Fatal(err)
			}
			if len(sum.Paths) != 21 {
				b.Fatal("want 21 paths")
			}
		}
	})
	b.Run("FullRange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := NewAnalyzer(WithIntDomain(-1_000_000, 1_000_000))
			sum, err := a.Execute(context.Background(), modUpdate, "update")
			if err != nil {
				b.Fatal(err)
			}
			if len(sum.Paths) != 24 {
				b.Fatal("want 24 paths")
			}
		}
	})
}

// BenchmarkAblationEq4 measures the affected-set computation with and
// without the reaching-definitions rule of Fig. 4 on the WBS artifact.
func BenchmarkAblationEq4(b *testing.B) {
	a, _ := artifacts.ByName("WBS")
	v, _ := a.Find("v2")
	run := func(b *testing.B, opts idise.Options) {
		for i := 0; i < b.N; i++ {
			if _, err := idise.AnalyzeOpts(a.BaseProgram(), a.ProgramFor(v), a.Proc, symexec.Config{}, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("WithEq4", func(b *testing.B) { run(b, idise.Options{}) })
	b.Run("WithoutEq4", func(b *testing.B) { run(b, idise.Options{SkipEq4: true}) })
}

// --- Analyzer service benchmarks ----------------------------------------------

// BenchmarkAnalyzerReuse vs BenchmarkAnalyzeCold measure the parse/CFG
// cache of the Analyzer on the CI-shaped workload: many analyses against
// the same base version. The subject is ASW v3, a narrow change whose
// directed exploration is small, so front-end cost (parse + type check +
// CFG construction + analysis precomputation) is a large share of the
// request and the cache's effect is visible end to end.

func analyzerBenchRequest(b *testing.B) Request {
	b.Helper()
	a, ok := artifacts.ByName("ASW")
	if !ok {
		b.Fatal("ASW artifact missing")
	}
	v, ok := a.Find("v3")
	if !ok {
		b.Fatal("ASW v3 missing")
	}
	return Request{BaseSrc: a.Base, ModSrc: a.SourceFor(v), Proc: a.Proc}
}

func BenchmarkAnalyzerReuse(b *testing.B) {
	req := analyzerBenchRequest(b)
	analyzer := NewAnalyzer()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := analyzer.Analyze(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Paths) != 3 {
			b.Fatalf("paths = %d, want 3", len(res.Paths))
		}
	}
}

func BenchmarkAnalyzeCold(b *testing.B) {
	req := analyzerBenchRequest(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := NewAnalyzer().Analyze(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Paths) != 3 {
			b.Fatalf("paths = %d, want 3", len(res.Paths))
		}
	}
}

// BenchmarkAnalyzeBatch measures the worker-pool fan-out over the WBS
// mutant catalog (16 requests sharing one base version).
func BenchmarkAnalyzeBatch(b *testing.B) {
	a, _ := artifacts.ByName("WBS")
	var reqs []Request
	for _, v := range a.Versions {
		reqs = append(reqs, Request{BaseSrc: a.Base, ModSrc: a.SourceFor(v), Proc: a.Proc})
	}
	analyzer := NewAnalyzer(WithParallelism(4))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, br := range analyzer.AnalyzeBatch(ctx, reqs) {
			if br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
}

// --- constraint-backend A/B benchmarks ----------------------------------------

// benchSolverBackend measures the full DiSE pipeline over every version of
// one artifact with the selected constraint backend, the CI-shaped workload
// (one base, many patches) the incremental machinery is built for. The
// parse/CFG cache is primed before timing so the comparison isolates solver
// cost: "Cold" re-solves each path condition from scratch (the
// pre-subsystem behavior), "Incremental" reuses prefix state within and
// across requests, "Bitvec" exercises the wraparound backend end to end.
// Compare two commits' results with -benchmem; the benchmark's pairwise
// workload gates the default backend's solver_calls_per_op.
func benchSolverBackend(b *testing.B, artifact, backend string) {
	b.Helper()
	a, ok := artifacts.ByName(artifact)
	if !ok {
		b.Fatal("unknown artifact")
	}
	analyzer := NewAnalyzer(WithSolverBackend(backend))
	ctx := context.Background()
	run := func() int {
		paths := 0
		for _, v := range a.Versions {
			res, err := analyzer.Analyze(ctx, Request{BaseSrc: a.Base, ModSrc: a.SourceFor(v), Proc: a.Proc})
			if err != nil {
				b.Fatal(err)
			}
			paths += len(res.Paths)
		}
		return paths
	}
	want := run() // prime parse/CFG cache; pin the expected path count
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := run(); got != want {
			b.Fatalf("paths = %d, want %d", got, want)
		}
	}
}

func benchSolverBackends(b *testing.B, artifact string) {
	b.Helper()
	b.Run("Incremental", func(b *testing.B) { benchSolverBackend(b, artifact, "interval") })
	b.Run("Cold", func(b *testing.B) { benchSolverBackend(b, artifact, "interval-noreuse") })
	b.Run("Bitvec", func(b *testing.B) { benchSolverBackend(b, artifact, "bitvec") })
}

func BenchmarkSolverBackendsASW(b *testing.B) { benchSolverBackends(b, "ASW") }
func BenchmarkSolverBackendsWBS(b *testing.B) { benchSolverBackends(b, "WBS") }

// BenchmarkSolverBackendsOAE is the acceptance benchmark of the constraint
// subsystem: OAE has the deepest execution tree of the three artifacts, so
// sibling path conditions share the longest prefixes and prefix reuse has
// the most to win. Incremental must beat Cold here.
func BenchmarkSolverBackendsOAE(b *testing.B) { benchSolverBackends(b, "OAE") }

// --- exploration-scheduler benchmarks -----------------------------------------

// BenchmarkSearchOAEFull measures full symbolic execution of the OAE base
// program (9216 paths, the deepest execution tree of the three artifacts):
// the scheduler's free depth-first walk with no pruning.
func BenchmarkSearchOAEFull(b *testing.B) {
	a, _ := artifacts.ByName("OAE")
	prog := a.BaseProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine, err := symexec.New(prog, a.Proc, symexec.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(engine.RunFull().Paths); got != 9216 {
			b.Fatalf("paths = %d, want 9216", got)
		}
	}
}

// BenchmarkSearchOAEDiSE measures the directed (DiSE) search on OAE v1: the
// scheduler's committed walk with the pruner's decisions applied.
func BenchmarkSearchOAEDiSE(b *testing.B) {
	a, _ := artifacts.ByName("OAE")
	v, _ := a.Find("v1")
	baseProg := a.BaseProgram()
	modProg := a.ProgramFor(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := idise.Analyze(baseProg, modProg, a.Proc, symexec.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(res.Summary.Paths); got != 2304 {
			b.Fatalf("paths = %d, want 2304", got)
		}
	}
}

// --- bounded-state-merging benchmarks ------------------------------------------

// benchMergeFullOAE measures full symbolic execution of the OAE base program
// under one merge bound, pinning the path and state counts so the bench
// smoke catches any drift in the merger's fusing decisions. OAE is all
// independent value-diamonds, the best case for merging: the 9216-path /
// 33790-state unmerged tree collapses to 3 paths / 57 states unbounded.
func benchMergeFullOAE(b *testing.B, bound, wantPaths, wantStates int) {
	b.Helper()
	a, _ := artifacts.ByName("OAE")
	prog := a.BaseProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine, err := symexec.New(prog, a.Proc, symexec.Config{MergeBound: bound})
		if err != nil {
			b.Fatal(err)
		}
		sum := engine.RunFull()
		if len(sum.Paths) != wantPaths || sum.Stats.StatesExplored != wantStates {
			b.Fatalf("bound %d: paths=%d states=%d, want %d/%d",
				bound, len(sum.Paths), sum.Stats.StatesExplored, wantPaths, wantStates)
		}
	}
}

func BenchmarkMergeOAEFull(b *testing.B) {
	b.Run("Off", func(b *testing.B) { benchMergeFullOAE(b, 0, 9216, 33790) })
	b.Run("Bound2", func(b *testing.B) { benchMergeFullOAE(b, 2, 6, 96) })
	b.Run("Bound8", func(b *testing.B) { benchMergeFullOAE(b, 8, 3, 57) })
	b.Run("Unbounded", func(b *testing.B) { benchMergeFullOAE(b, symexec.MergeUnbounded, 3, 57) })
}

// benchMergeDiSEOAE measures DiSE on OAE v1 under one merge bound. Merged
// DiSE converges to the same tiny state count as merged full SE here:
// fusing the value-diamonds leaves the directed pruner nothing to prune,
// which is the point — the two optimizations attack the same explosion from
// different ends (verdict equivalence across all bounds is pinned by
// TestMergedDiseVerdictEquivalenceOnArtifacts).
func benchMergeDiSEOAE(b *testing.B, bound, wantPaths, wantStates int) {
	b.Helper()
	a, _ := artifacts.ByName("OAE")
	v, _ := a.Find("v1")
	baseProg := a.BaseProgram()
	modProg := a.ProgramFor(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := idise.Analyze(baseProg, modProg, a.Proc, symexec.Config{MergeBound: bound})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Summary.Paths) != wantPaths || res.Summary.Stats.StatesExplored != wantStates {
			b.Fatalf("bound %d: paths=%d states=%d, want %d/%d",
				bound, len(res.Summary.Paths), res.Summary.Stats.StatesExplored, wantPaths, wantStates)
		}
	}
}

func BenchmarkMergeOAEDiSE(b *testing.B) {
	b.Run("Off", func(b *testing.B) { benchMergeDiSEOAE(b, 0, 2304, 8452) })
	b.Run("Bound2", func(b *testing.B) { benchMergeDiSEOAE(b, 2, 6, 96) })
	b.Run("Bound8", func(b *testing.B) { benchMergeDiSEOAE(b, 8, 3, 57) })
	b.Run("Unbounded", func(b *testing.B) { benchMergeDiSEOAE(b, symexec.MergeUnbounded, 3, 57) })
}

// --- component benchmarks -----------------------------------------------------

func BenchmarkParserWBS(b *testing.B) {
	a, _ := artifacts.ByName("WBS")
	b.SetBytes(int64(len(a.Base)))
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(a.Base); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFGAnalyses(b *testing.B) {
	a, _ := artifacts.ByName("OAE")
	prog := parser.MustParse(a.Base)
	pr := prog.Proc(a.Proc)
	for i := 0; i < b.N; i++ {
		g := cfg.Build(pr)
		// Exercise the analyses DiSE depends on (each computed fresh since
		// the graph is rebuilt every iteration).
		n := g.StatementNodes()
		_ = g.IsCFGPath(n[0], n[len(n)-1])
		_ = g.PostDom(n[0], n[len(n)-1])
		_ = g.ControlD(n[0], n[1])
		_ = g.GetSCC(n[0])
	}
}

func BenchmarkSolverLinearSystem(b *testing.B) {
	x, y := sym.V("X"), sym.V("Y")
	cs := []sym.Expr{
		sym.Cmp(sym.OpEQ, sym.Add(x, y), sym.Int(10)),
		sym.Cmp(sym.OpEQ, sym.Sub(x, y), sym.Int(4)),
		sym.Cmp(sym.OpGE, x, sym.Zero),
	}
	domains := map[string]solver.Interval{"X": solver.DefaultDomain, "Y": solver.DefaultDomain}
	s := solver.New(solver.Options{})
	for i := 0; i < b.N; i++ {
		if res := s.Check(cs, domains); !res.Sat {
			b.Fatal("must be sat")
		}
	}
}

func BenchmarkSolverUnsatChain(b *testing.B) {
	x := sym.V("X")
	var cs []sym.Expr
	for k := int64(0); k < 10; k++ {
		cs = append(cs, sym.Cmp(sym.OpNE, x, sym.Int(k)))
	}
	cs = append(cs, sym.Cmp(sym.OpLE, x, sym.Int(9)))
	domains := map[string]solver.Interval{"X": {Lo: 0, Hi: 9}}
	s := solver.New(solver.Options{})
	for i := 0; i < b.N; i++ {
		if res := s.Check(cs, domains); res.Sat {
			b.Fatal("must be unsat")
		}
	}
}

func BenchmarkFullSymbolicExecutionASW(b *testing.B) {
	a, _ := artifacts.ByName("ASW")
	prog := a.BaseProgram()
	for i := 0; i < b.N; i++ {
		engine, err := symexec.New(prog, a.Proc, symexec.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(engine.RunFull().Paths); got != 1728 {
			b.Fatalf("paths = %d, want 1728", got)
		}
	}
}

func BenchmarkDiSENarrowChangeASW(b *testing.B) {
	a, _ := artifacts.ByName("ASW")
	v, _ := a.Find("v3")
	baseProg := a.BaseProgram()
	modProg := a.ProgramFor(v)
	for i := 0; i < b.N; i++ {
		res, err := idise.Analyze(baseProg, modProg, a.Proc, symexec.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Summary.Paths) != 3 {
			b.Fatal("want 3 paths")
		}
	}
}

func BenchmarkTestGeneration(b *testing.B) {
	sum, err := NewAnalyzer().Execute(context.Background(), modUpdate, "update")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if got := len(sum.Tests()); got == 0 {
			b.Fatal("no tests")
		}
	}
}

// --- version-chain sessions ----------------------------------------------------

// benchChainCold analyzes every consecutive version pair of an artifact's
// evolution chain with a fresh Analyzer per step — no state survives between
// steps, the baseline a version-chain session is measured against.
func benchChainCold(b *testing.B, name string) {
	art, _ := artifacts.ByName(name)
	srcs := chainSources(art)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 1; j < len(srcs); j++ {
			a := NewAnalyzer()
			res, err := a.Analyze(ctx, Request{BaseSrc: srcs[j-1], ModSrc: srcs[j], Proc: art.Proc})
			if err != nil {
				b.Fatal(err)
			}
			_ = res
		}
	}
}

// benchChainWarm runs the same chain through one Session: seeding full
// exploration of the base version included, so the comparison against the
// cold baseline charges the session its whole cost of admission.
func benchChainWarm(b *testing.B, name string) {
	art, _ := artifacts.ByName(name)
	srcs := chainSources(art)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAnalyzer()
		sess, err := a.NewSession(ctx, SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
		if err != nil {
			b.Fatal(err)
		}
		hits := 0
		for j := 1; j < len(srcs); j++ {
			res, err := sess.Advance(ctx, srcs[j])
			if err != nil {
				b.Fatal(err)
			}
			hits += res.Stats.Memo.MemoHits
		}
		if hits == 0 {
			b.Fatal("warm chain replayed nothing")
		}
	}
}

// benchChainWarmSteps measures only the Advance calls, with the seeding run
// (one full symbolic execution of the base version) outside the timer — the
// steady-state cost of a session whose original version was already explored
// once, the paper's workflow.
func benchChainWarmSteps(b *testing.B, name string) {
	art, _ := artifacts.ByName(name)
	srcs := chainSources(art)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := NewAnalyzer()
		sess, err := a.NewSession(ctx, SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 1; j < len(srcs); j++ {
			if _, err := sess.Advance(ctx, srcs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkChainColdASW(b *testing.B)      { benchChainCold(b, "ASW") }
func BenchmarkChainWarmASW(b *testing.B)      { benchChainWarm(b, "ASW") }
func BenchmarkChainWarmStepsASW(b *testing.B) { benchChainWarmSteps(b, "ASW") }
func BenchmarkChainColdWBS(b *testing.B)      { benchChainCold(b, "WBS") }
func BenchmarkChainWarmWBS(b *testing.B)      { benchChainWarm(b, "WBS") }
func BenchmarkChainWarmStepsWBS(b *testing.B) { benchChainWarmSteps(b, "WBS") }
func BenchmarkChainColdOAE(b *testing.B)      { benchChainCold(b, "OAE") }
func BenchmarkChainWarmOAE(b *testing.B)      { benchChainWarm(b, "OAE") }
func BenchmarkChainWarmStepsOAE(b *testing.B) { benchChainWarmSteps(b, "OAE") }

func BenchmarkDiffWBS(b *testing.B) {
	a, _ := artifacts.ByName("WBS")
	v, _ := a.Find("v15")
	baseSrc, modSrc := a.Base, a.SourceFor(v)
	for i := 0; i < b.N; i++ {
		res, err := NewAnalyzer().Analyze(context.Background(),
			Request{BaseSrc: baseSrc, ModSrc: modSrc, Proc: a.Proc})
		if err != nil {
			b.Fatal(err)
		}
		if res.ChangedNodes == 0 {
			b.Fatal("expected changes")
		}
	}
}
