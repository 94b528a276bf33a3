package main

import (
	"container/list"
	"crypto/sha256"
	"fmt"

	"dise/internal/cfg"
	"dise/internal/constraint"
	"dise/internal/diff"
	idise "dise/internal/dise"
	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/lang/types"
	"dise/internal/memo"
	"dise/internal/symexec"
	"dise/internal/testgen"
)

// mirror is the traced pipeline: it performs the same internal calls, in
// the same order, as the public API's request paths (Analyzer.analyze,
// NewSession, Session.Advance and Result.Tests) with a span around each
// layer. Its parse/CFG cache and prefix cache are its own, sized like an
// Analyzer's defaults, so a traced op meets the cache state an untraced op
// of the same workload meets. The one intended difference is the solver
// backend: the timed wrapper of the same interval backend.
type mirror struct {
	tr     *tracer
	cache  *programCache
	prefix *constraint.PrefixCache
}

func newMirror(tr *tracer) *mirror {
	const defaultCacheCapacity = 128 // the Analyzer's parse/CFG cache default
	return &mirror{tr: tr, cache: newProgramCache(defaultCacheCapacity), prefix: constraint.NewPrefixCache(0)}
}

// config is the engine configuration of an Analyzer with default options.
func (m *mirror) config() symexec.Config {
	return symexec.Config{SolverBackend: timedBackendName, SolverCache: m.prefix}
}

// version is one resolved program version, as in the facade.
type version struct {
	prog  *ast.Program
	proc  *ast.Procedure
	graph *cfg.Graph
}

// resolve runs one source text through the parse/CFG cache.
func (m *mirror) resolve(src, procName string) (version, error) {
	entry, err := m.cache.get(src, m.tr)
	if err != nil {
		return version{}, err
	}
	proc := entry.prog.Proc(procName)
	if proc == nil {
		return version{}, fmt.Errorf("procedure %q not found", procName)
	}
	if err := symexec.CheckNoCalls(proc); err != nil {
		return version{}, err
	}
	return version{prog: entry.prog, proc: proc, graph: entry.graph(proc, m.tr)}, nil
}

// direct runs the affected-set computation and the directed search of one
// prepared job, like internal/dise.Run.
func (m *mirror) direct(base version, engine *symexec.Engine, d *diff.Result) *idise.Result {
	t := m.tr
	if d == nil {
		t.do(layDiff, func() { d = diff.Procedures(base.proc, engine.Proc) })
	}
	var aff *idise.Affected
	t.do(layAffected, func() { aff = idise.ComputeAffected(base.graph, engine.Graph, d, idise.Options{}) })
	var runner *idise.Runner
	var summary *symexec.Summary
	t.do(laySymexec, func() {
		runner = idise.NewRunner(engine, aff)
		summary = runner.Run()
	})
	t.count.changedNodes += aff.ChangedNodes
	t.count.affectedNodes += aff.Size()
	t.count.prunedStates += runner.PruneStats.PrunedStates
	t.count.states += summary.Stats.StatesExplored
	t.count.infeasible += summary.Stats.InfeasibleBranches
	return &idise.Result{Diff: d, BaseGraph: base.graph, ModGraph: engine.Graph, Affected: aff, Summary: summary, Prune: runner.PruneStats}
}

// analyze mirrors Analyzer.Analyze.
func (m *mirror) analyze(baseSrc, modSrc, procName string) (*idise.Result, *ast.Program, error) {
	prefix := m.prefix.Stats()
	defer m.notePrefix(prefix)
	base, err := m.resolve(baseSrc, procName)
	if err != nil {
		return nil, nil, err
	}
	mod, err := m.resolve(modSrc, procName)
	if err != nil {
		return nil, nil, err
	}
	var engine *symexec.Engine
	m.tr.do(laySymexec, func() { engine, err = symexec.NewPrepared(mod.prog, mod.proc, mod.graph, m.config()) })
	if err != nil {
		return nil, nil, err
	}
	return m.direct(base, engine, nil), mod.prog, nil
}

// tests mirrors Result.Tests: a fresh engine over the modified program
// (type check and CFG included), then test generation.
func (m *mirror) tests(res *idise.Result, modProg *ast.Program, procName string) ([]testgen.TestCase, error) {
	prefix := m.prefix.Stats()
	defer m.notePrefix(prefix)
	var engine *symexec.Engine
	var err error
	m.tr.do(layTestgenRebuild, func() { engine, err = symexec.New(modProg, procName, m.config()) })
	if err != nil {
		return nil, err
	}
	var tests []testgen.TestCase
	m.tr.do(layTestgen, func() { tests = testgen.NewGenerator(engine).Generate(res.Summary) })
	m.tr.count.tests += len(tests)
	return tests, nil
}

func (m *mirror) notePrefix(before constraint.CacheStats) {
	after := m.prefix.Stats()
	m.tr.count.prefixHits += after.Hits - before.Hits
	m.tr.count.prefixMisses += after.Misses - before.Misses
}

// session mirrors dise.Session.
type session struct {
	m       *mirror
	proc    string
	prev    version
	prevSig string
	tree    *memo.Tree
}

// newSession mirrors Analyzer.NewSession with its seeding run.
func (m *mirror) newSession(src, procName string) (*session, error) {
	prefix := m.prefix.Stats()
	defer m.notePrefix(prefix)
	v, err := m.resolve(src, procName)
	if err != nil {
		return nil, err
	}
	s := &session{m: m, proc: procName, prev: v, tree: &memo.Tree{}}
	s.tree.BeginStep()
	c := m.config()
	c.Memo = s.tree
	var engine *symexec.Engine
	var summary *symexec.Summary
	m.tr.do(laySymexec, func() {
		if engine, err = symexec.NewPrepared(v.prog, v.proc, v.graph, c); err == nil {
			summary = engine.RunFull()
		}
	})
	if err != nil {
		return nil, err
	}
	m.tr.count.states += summary.Stats.StatesExplored
	m.tr.count.infeasible += summary.Stats.InfeasibleBranches
	s.prevSig = engine.MemoSignature()
	m.tr.do(layMemoEnforce, func() { s.tree.Enforce() })
	return s, nil
}

// advance mirrors Session.Advance.
func (s *session) advance(nextSrc string) (*idise.Result, error) {
	m, t := s.m, s.m.tr
	prefix := m.prefix.Stats()
	defer m.notePrefix(prefix)
	next, err := m.resolve(nextSrc, s.proc)
	if err != nil {
		return nil, err
	}
	var d *diff.Result
	t.do(layDiff, func() { d = diff.Procedures(s.prev.proc, next.proc) })
	c := m.config()
	c.Memo = s.tree
	var engine *symexec.Engine
	t.do(laySymexec, func() { engine, err = symexec.NewPrepared(next.prog, next.proc, next.graph, c) })
	if err != nil {
		return nil, err
	}
	sig := engine.MemoSignature()
	var kept, dropped int
	t.do(layMemoRekey, func() {
		if s.prevSig != "" && s.prevSig != sig {
			dropped = s.tree.Invalidate()
		} else {
			kept, dropped = s.tree.Rekey(nodeCorrespondence(d))
		}
		s.tree.BeginStep()
	})
	res := m.direct(s.prev, engine, d)
	// Enforcement plus the trie accounting the facade reports per step.
	var nodes int
	var bytes int64
	t.do(layMemoEnforce, func() {
		s.tree.Enforce()
		nodes, bytes = s.tree.Size(), s.tree.Bytes()
	})
	st := res.Summary.Stats
	t.count.memoOps++
	t.count.memoHits += st.MemoHits
	t.count.replayed += st.MemoStatesReplayed
	t.count.live += st.MemoStatesLive
	t.count.kept += kept
	t.count.invalidated += dropped
	t.count.trieNodes += nodes
	t.count.trieBytes += bytes
	s.prev, s.prevSig = next, sig
	return res, nil
}

// nodeCorrespondence is the facade's trie-rekeying map: the diff's
// unchanged-statement correspondence plus the statement-less nodes.
func nodeCorrespondence(d *diff.Result) map[string]string {
	corr := d.Correspondence().BaseToMod
	corr[cfg.StableKeyBegin] = cfg.StableKeyBegin
	corr[cfg.StableKeyEnd] = cfg.StableKeyEnd
	corr[cfg.StableKeyError] = cfg.StableKeyError
	return corr
}

// programCache is the facade's parse/CFG cache: an LRU of parsed,
// type-checked programs keyed by the SHA-256 of their source, with
// per-procedure CFGs built and precomputed on first use.
type programCache struct {
	capacity int
	entries  map[[sha256.Size]byte]*list.Element
	lru      *list.List // of *cacheSlot, front = most recent
}

type cacheSlot struct {
	key  [sha256.Size]byte
	prog *cachedProgram
}

type cachedProgram struct {
	prog   *ast.Program
	graphs map[string]*cfg.Graph
}

func newProgramCache(capacity int) *programCache {
	return &programCache{capacity: capacity, entries: map[[sha256.Size]byte]*list.Element{}, lru: list.New()}
}

func (pc *programCache) get(src string, t *tracer) (*cachedProgram, error) {
	key := sha256.Sum256([]byte(src))
	if el, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(el)
		t.count.parseHits++
		return el.Value.(*cacheSlot).prog, nil
	}
	t.count.parseMisses++
	var prog *ast.Program
	var err error
	t.do(layLang, func() {
		if prog, err = parser.Parse(src); err == nil {
			_, err = types.Check(prog)
		}
	})
	t.count.langCalls += 2
	t.count.langBytes += len(src)
	if err != nil {
		return nil, err
	}
	entry := &cachedProgram{prog: prog, graphs: map[string]*cfg.Graph{}}
	pc.entries[key] = pc.lru.PushFront(&cacheSlot{key: key, prog: entry})
	//diselint:ignore interruptloop bounded: each iteration evicts one LRU entry
	for pc.lru.Len() > pc.capacity {
		oldest := pc.lru.Back()
		pc.lru.Remove(oldest)
		delete(pc.entries, oldest.Value.(*cacheSlot).key)
	}
	return entry, nil
}

func (c *cachedProgram) graph(proc *ast.Procedure, t *tracer) *cfg.Graph {
	if g, ok := c.graphs[proc.Name]; ok {
		return g
	}
	var g *cfg.Graph
	t.do(layCfg, func() {
		g = cfg.Build(proc)
		g.Precompute()
	})
	t.count.cfgCalls++
	t.count.cfgNodes += g.Size()
	c.graphs[proc.Name] = g
	return g
}
