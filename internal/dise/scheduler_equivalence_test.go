package dise

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dise/internal/artifacts"
	"dise/internal/cfg"
	"dise/internal/diff"
	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/randprog"
	"dise/internal/symexec"
)

// This file pins the scheduler refactor against the pre-refactor directed
// search: oracleRunner is a transliteration of the recursive DiSE procedure
// (Fig. 6) exactly as it was implemented before pruning moved into a
// symexec.Pruner hook — an outer search loop driving Engine.Step directly,
// over map-based affected-node sets walked node by node. The reworked
// Runner, with its bitset sets and whole-set reachability algebra, must
// reproduce it byte for byte (paths, order, pruning counters) at the default
// DFS strategy, and — because pruning decisions are committed in
// depth-first order at every strategy and parallelism level — under every
// other scheduler configuration too.

type oracleRunner struct {
	engine    *symexec.Engine
	affected  *Affected
	exCond    map[int]bool
	exWrite   map[int]bool
	unExCond  map[int]bool
	unExWrite map[int]bool
	stats     PruneStats
}

func newOracle(engine *symexec.Engine, affected *Affected) *oracleRunner {
	o := &oracleRunner{
		engine:    engine,
		affected:  affected,
		exCond:    map[int]bool{},
		exWrite:   map[int]bool{},
		unExCond:  map[int]bool{},
		unExWrite: map[int]bool{},
	}
	for id := range affected.ACN {
		o.unExCond[id] = true
	}
	for id := range affected.AWN {
		o.unExWrite[id] = true
	}
	return o
}

func (o *oracleRunner) run() *symexec.Summary {
	summary := &symexec.Summary{}
	o.dise(o.engine.InitialState(), summary)
	return summary
}

func (o *oracleRunner) dise(s *symexec.State, summary *symexec.Summary) {
	if o.engine.InterruptErr() != nil || o.engine.BudgetExhausted() {
		return
	}
	if s.Depth > o.engine.DepthBound() {
		return
	}
	if s.Node.Kind == cfg.KindError {
		o.collect(s, summary)
		return
	}
	o.updateExploredSet(s.Node.ID)
	step := o.engine.Step(s)
	if o.engine.InterruptErr() != nil {
		return
	}
	for _, t := range step.InfeasibleTargets {
		o.updateExploredSet(t.ID)
	}
	explored := false
	for _, si := range step.Feasible {
		switch {
		case si.Node.Kind == cfg.KindError:
			explored = true
			o.collect(si, summary)
		case o.reachable(si):
			explored = true
			o.dise(si, summary)
		default:
			o.stats.PrunedStates++
		}
	}
	if !explored {
		if !o.engine.Terminal(s) && s.Depth >= o.engine.DepthBound() {
			return
		}
		o.collect(s, summary)
	}
}

func (o *oracleRunner) collect(s *symexec.State, summary *symexec.Summary) {
	trace := s.Trace
	switch s.Node.Kind {
	case cfg.KindCond, cfg.KindWrite, cfg.KindNop:
		trace = append(append([]int{}, s.Trace...), s.Node.ID)
	}
	affected := false
	for _, id := range trace {
		if o.affected.Contains(id) {
			affected = true
			break
		}
	}
	if !affected {
		o.stats.UnaffectedPaths++
		return
	}
	adjusted := *s
	adjusted.Trace = trace
	summary.Paths = append(summary.Paths, o.engine.Collect(&adjusted))
}

func (o *oracleRunner) updateExploredSet(id int) {
	if o.unExWrite[id] {
		delete(o.unExWrite, id)
		o.exWrite[id] = true
	}
	if o.unExCond[id] {
		delete(o.unExCond, id)
		o.exCond[id] = true
	}
}

func (o *oracleRunner) resetUnExploredSet(id int) {
	if o.exWrite[id] {
		delete(o.exWrite, id)
		o.unExWrite[id] = true
		o.stats.Resets++
	}
	if o.exCond[id] {
		delete(o.exCond, id)
		o.unExCond[id] = true
		o.stats.Resets++
	}
}

func (o *oracleRunner) reachable(si *symexec.State) bool {
	g := o.engine.Graph
	ni := si.Node
	if g.IsLoopEntryNode(ni) {
		for _, m := range g.GetSCC(ni) {
			o.resetUnExploredSet(m.ID)
		}
	}
	unExplored := keysInto(nil, o.unExWrite, o.unExCond)
	explored := keysInto(nil, o.exWrite, o.exCond)
	isReachable := false
	for _, nj := range unExplored {
		if !g.Reaches(ni.ID, nj) {
			continue
		}
		isReachable = true
		for _, nk := range explored {
			if g.Reaches(nj, nk) {
				o.resetUnExploredSet(nk)
			}
		}
	}
	return isReachable
}

// keysInto appends the members of the sets to out, sorted: the oracle's
// snapshots of lines 16–17.
func keysInto(out []int, sets ...map[int]bool) []int {
	for _, set := range sets {
		for id := range set {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// runOracle runs the pre-refactor recursion on one version pair and returns
// its paths and pruning counters.
func runOracle(t *testing.T, baseProg, modProg *ast.Program, proc string) ([]string, PruneStats) {
	t.Helper()
	engine, err := symexec.New(modProg, proc, symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseGraph := cfg.Build(baseProg.Proc(proc))
	d := diff.Procedures(baseProg.Proc(proc), engine.Proc)
	affected := ComputeAffected(baseGraph, engine.Graph, d, Options{})
	o := newOracle(engine, affected)
	paths := pathStrings(o.run())
	return paths, o.stats
}

// schedulerPaths runs the reworked scheduler-based search with the given
// strategy and parallelism on the same version.
func schedulerPaths(t *testing.T, art artifacts.Artifact, v artifacts.Version, strategy string, par int) ([]string, PruneStats) {
	t.Helper()
	baseProg, modProg := art.BaseProgram(), art.ProgramFor(v)
	res, err := Analyze(baseProg, modProg, art.Proc,
		symexec.Config{Strategy: strategy, ExploreParallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return pathStrings(res.Summary), res.Prune
}

func pathStrings(s *symexec.Summary) []string {
	out := make([]string, len(s.Paths))
	for i, p := range s.Paths {
		out[i] = fmt.Sprintf("%s %v err=%v", p.PCString, p.Trace, p.Err)
	}
	return out
}

// TestSchedulerEquivalenceOnArtifacts is the scheduler acceptance gate over
// the paper's full artifact catalog: for all 40 ASW/WBS/OAE versions, every
// (strategy, parallelism) combination yields the identical affected-path
// sequence — not just set — and the same pruning counters as the
// pre-refactor recursion.
func TestSchedulerEquivalenceOnArtifacts(t *testing.T) {
	combos := []struct {
		strategy string
		par      int
	}{
		{"dfs", 1}, {"dfs", 4},
		{"bfs", 1}, {"bfs", 4},
		{"directed", 1}, {"directed", 4},
	}
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			for _, v := range art.Versions {
				v := v
				t.Run(v.Name, func(t *testing.T) {
					t.Parallel()
					want, wantStats := runOracle(t, art.BaseProgram(), art.ProgramFor(v), art.Proc)
					for _, c := range combos {
						got, stats := schedulerPaths(t, art, v, c.strategy, c.par)
						if !reflect.DeepEqual(want, got) {
							t.Errorf("%s/par%d: %d paths, oracle has %d — affected paths diverged from the pre-refactor search",
								c.strategy, c.par, len(got), len(want))
						}
						if stats != wantStats {
							t.Errorf("%s/par%d: prune stats %+v, oracle %+v", c.strategy, c.par, stats, wantStats)
						}
					}
				})
			}
		})
	}
}

// TestSchedulerPruneStatsMatchOracle pins the pruner bookkeeping through
// the hook interface: the committed walk must present states to the pruner
// exactly as the recursive search did, so the Runner's full PruneStats —
// pruned states, unaffected paths and resets — and its paths equal the
// map-based oracle's on the motivating example and on random programs with
// loops, whose loop-entry resets and back-edge reachability the artifacts
// (TestSchedulerEquivalenceOnArtifacts) lack.
func TestSchedulerPruneStatsMatchOracle(t *testing.T) {
	check := func(t *testing.T, name string, base, mod *ast.Program, proc string) PruneStats {
		t.Helper()
		wantPaths, want := runOracle(t, base, mod, proc)
		res, err := Analyze(base, mod, proc, symexec.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Prune != want {
			t.Errorf("%s: prune stats %+v, oracle %+v", name, res.Prune, want)
		}
		if got := pathStrings(res.Summary); !reflect.DeepEqual(got, wantPaths) {
			t.Errorf("%s: %d paths, oracle has %d — affected paths diverged from the oracle", name, len(got), len(wantPaths))
		}
		return res.Prune
	}

	fig2 := check(t, "motivating example", mustParse(t, fig2BaseSource), mustParse(t, fig2ModSource), "update")
	if fig2.PrunedStates == 0 {
		t.Error("motivating example must prune states")
	}

	if testing.Short() {
		t.Skip("random-program corpus skipped in -short mode")
	}
	// The corpus totals are those of the map-based Runner the bitset sets
	// replaced; they pin the corpus itself, so a generator change that
	// stops exercising resets shows up here rather than passing vacuously.
	const seeds = 400
	var total PruneStats
	for seed := int64(0); seed < seeds; seed++ {
		gen := randprog.New(seed, randprog.Config{Loops: true})
		base := gen.Program()
		mod, _ := gen.Mutate(base, 2)
		st := check(t, fmt.Sprintf("randprog seed %d", seed), reparse(t, base), reparse(t, mod), "p")
		total.PrunedStates += st.PrunedStates
		total.UnaffectedPaths += st.UnaffectedPaths
		total.Resets += st.Resets
	}
	if want := (PruneStats{PrunedStates: 1473, UnaffectedPaths: 68, Resets: 69877}); total != want {
		t.Errorf("randprog corpus totals %+v, want %+v", total, want)
	}
}

// reparse round-trips a generated program through its source text, as the
// analyzer sees it.
func reparse(t *testing.T, prog *ast.Program) *ast.Program {
	t.Helper()
	p, err := parser.Parse(ast.Pretty(prog))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReachabilityCheckAllocFree pins the steady-state cost of the pruner's
// per-successor hook: the reachability check and its resets work in the
// Runner's preallocated bitsets and allocate nothing.
func TestReachabilityCheckAllocFree(t *testing.T) {
	base, mod := mustParse(t, fig2BaseSource), mustParse(t, fig2ModSource)
	engine, err := symexec.New(mod, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := diff.Procedures(base.Proc("update"), engine.Proc)
	r := NewRunner(engine, ComputeAffected(cfg.Build(base.Proc("update")), engine.Graph, d, Options{}))
	s := engine.InitialState()
	// Mark every affected node explored so each check also resets them all.
	for id := range r.Affected.ACN {
		r.updateExploredSet(id)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !r.affectedLocIsReachable(s) {
			t.Fatal("every affected node is reachable from the entry")
		}
		for id := range r.Affected.ACN {
			r.updateExploredSet(id)
		}
	})
	if allocs != 0 {
		t.Errorf("reachability check allocates %.1f times per call, want 0", allocs)
	}
	if r.PruneStats.Resets == 0 {
		t.Error("the check never reset an explored node")
	}
}

// TestParallelDiSEStatsDeterministic pins the satellite contract for the
// directed search: repeated parallel runs report identical core exploration
// counters and paths, whatever speculation the workers performed.
func TestParallelDiSEStatsDeterministic(t *testing.T) {
	base, mod := mustParse(t, fig2BaseSource), mustParse(t, fig2ModSource)
	seq, err := Analyze(base, mod, "update", symexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		par, err := Analyze(mustParse(t, fig2BaseSource), mustParse(t, fig2ModSource), "update",
			symexec.Config{ExploreParallelism: 4, Strategy: "directed"})
		if err != nil {
			t.Fatal(err)
		}
		if par.Summary.Stats.StatesExplored != seq.Summary.Stats.StatesExplored {
			t.Fatalf("run %d: committed states %d, want %d",
				i, par.Summary.Stats.StatesExplored, seq.Summary.Stats.StatesExplored)
		}
		if !reflect.DeepEqual(pathStrings(par.Summary), pathStrings(seq.Summary)) {
			t.Fatalf("run %d: parallel paths differ from sequential", i)
		}
	}
}
