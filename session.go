package dise

import (
	"context"
	"sync"

	"dise/internal/cfg"
	"dise/internal/diff"
	idise "dise/internal/dise"
	"dise/internal/memo"
	"dise/internal/symexec"
)

// Session is a version-chain analysis session: the stateful counterpart of
// Analyze for a program that evolves through a sequence of versions
// v0 → v1 → … → vk (the paper's evaluation chains: ASW has 15 versions, WBS
// 16, OAE 9). Each Advance(ctx, nextSrc) diffs the new version against the
// previous one and runs the same directed analysis Analyze would — the
// results are byte-identical — but the session additionally persists a
// memoized execution-tree trie (internal/memo) across steps: the solver
// verdicts recorded while exploring version v(i) are replayed while
// exploring v(i+1) wherever the diff proves the surrounding statements
// unchanged, so the cost of a step tracks the size of the edit rather than
// the size of the program.
//
// The invalidation rule is the trie's chain invariant (see internal/memo):
// a recorded solver verdict is only ever consulted by a state whose path
// condition is provably the exact conjunction the verdict was recorded
// under, because recorded children are re-attached arm by arm only when
// their recorded path-condition contribution matches the one the current
// run just computed. An edit therefore invalidates exactly the conjunctions
// it changes: an edited write keeps its recorded subtree alive until the
// first constraint its new value actually alters, an edited conditional
// invalidates the conjunctions containing its constraint and nothing else,
// and a reverted edit re-matches the earlier version's recorded subtrees
// outright. Before each run the trie is additionally re-keyed through the
// diff's node correspondence map — statement identities are translated into
// the new version's key space, with changed/moved/removed statements
// conservatively treated as unmatched — and an edit that changes the
// symbolic inputs themselves (parameters, globals, their domains or the
// solver backend) invalidates the whole trie. Pruning decisions — which are
// change-dependent — are never replayed; every step re-decides them against
// its own affected sets, which is what keeps warm results exact for DiSE's
// order-sensitive search.
//
// The constraint subsystem's prefix cache is keyed by constraint content,
// not by program version, and the session's steps all run against the
// owning Analyzer's shared cache — so even invalidated regions that re-solve
// live benefit from prefixes solved in earlier steps.
//
// A Session is owned by one logical client: Advance calls are serialized
// internally, but interleaving Advances from multiple goroutines makes the
// version chain itself meaningless. The owning Analyzer remains fully
// concurrent-safe and can serve other requests while a session runs.
type Session struct {
	a               *Analyzer
	proc            string
	interprocedural bool

	mu   sync.Mutex
	step int
	prev version // previous chain version (the next Advance's base)
	// prevSig is the memo signature of the previous step's engine; a
	// mismatch invalidates the whole trie (see symexec.Engine.MemoSignature).
	prevSig string
	tree    *memo.Tree
}

// SessionRequest configures NewSession.
type SessionRequest struct {
	// InitialSrc is the first version of the chain (v0). It is parsed,
	// type-checked and validated, but not analyzed: an analysis needs two
	// versions, so the first Result comes from the first Advance.
	InitialSrc string
	// Proc is the procedure under analysis (for inter-procedural sessions,
	// the entry procedure).
	Proc string
	// Interprocedural inlines every call reachable from Proc in every
	// version before the differential analysis.
	Interprocedural bool
	// SkipSeed skips the seeding run: by default NewSession performs one
	// full symbolic execution of the initial version, recording its
	// execution tree into the session's trie — the paper's workflow, where
	// the original program was fully explored once before it started
	// evolving. Seeding is what gives the very first Advance something to
	// replay (a directed run only records the paths it explores, so without
	// a seed the trie starts empty) and it keeps paying down the chain,
	// because subtrees later steps never re-explore retain the seed's
	// verdicts. Skip it when the initial version is too large to explore
	// fully; the session then warms up from the first Advance instead.
	SkipSeed bool
}

// NewSession opens a version-chain session seeded with the chain's first
// version. The session inherits every option of the Analyzer (solver
// backend, bounds, memo budget) and shares its parse/CFG cache and
// solved-prefix cache.
func (a *Analyzer) NewSession(ctx context.Context, req SessionRequest) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: Cancelled, Err: err}
	}
	// Checked here, not left to the engine builder, so a SkipSeed session
	// (which builds no engine until its first Advance) still fails at
	// construction: the memo trie records verdicts keyed by per-path
	// conjunctions, which state merging replaces with factored disjunctions.
	if a.conf.mergeBound != 0 {
		return nil, &Error{Kind: InvalidConfig, Err: errMergeSession}
	}
	v, err := a.resolveVersion(req.InitialSrc, req.Proc, "initial version", req.Interprocedural)
	if err != nil {
		return nil, err
	}
	s := &Session{
		a:               a,
		proc:            req.Proc,
		interprocedural: req.Interprocedural,
		prev:            v,
		tree:            &memo.Tree{},
	}
	s.tree.SetNodeBudget(a.conf.memoNodeBudget)
	if !req.SkipSeed {
		s.tree.BeginStep()
		cfgc := a.engineConfig(ctx)
		cfgc.Memo = s.tree
		engine, err := symexec.NewPrepared(v.prog, v.proc, v.graph, cfgc)
		if err != nil {
			return nil, errKind(InvalidConfig, "", err)
		}
		// Seeding records the trie; nobody reads its paths, so count them
		// instead of collecting them.
		symexec.NewExplorer(engine, symexec.ExploreOptions{CountOnly: true}).Run()
		if err := engine.InterruptErr(); err != nil {
			return nil, &Error{Kind: Cancelled, Err: err}
		}
		a.noteRunDone()
		// A MaxStates-truncated seed is kept: every recorded verdict is a
		// valid fact regardless of how far the seeding run got.
		s.prevSig = engine.MemoSignature()
		s.tree.Enforce()
	}
	return s, nil
}

// MemoUsage reports the session trie's current size: node count and the
// approximate retained bytes (memo.Tree.Usage). The service store sums it
// across sessions to enforce a global trie-byte ceiling.
func (s *Session) MemoUsage() (nodes int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.Usage()
}

// Step returns how many Advance calls have completed successfully.
func (s *Session) Step() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.step
}

// Advance moves the chain to its next version: it diffs nextSrc against the
// session's previous version, invalidates the stale parts of the memo trie,
// runs the directed analysis (replaying recorded solver verdicts for the
// unchanged parts, recording fresh ones for the rest), and returns the same
// Result a cold Analyze(prev, next) would — plus the step's MemoStats in
// Result.Stats.Memo. On failure (cancellation, budget exhaustion, a version
// that does not parse) the session keeps its previous version and can be
// retried, but a failure that interrupted a run mid-flight drops the memo
// trie: a partially refreshed trie is already keyed in the new version's
// space and cannot soundly serve the retried diff.
func (s *Session) Advance(ctx context.Context, nextSrc string) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: Cancelled, Err: err}
	}

	next, err := s.a.resolveVersion(nextSrc, s.proc, "next version", s.interprocedural)
	if err != nil {
		return nil, err
	}

	d := diff.Procedures(s.prev.proc, next.proc)

	cfgc := s.a.engineConfig(ctx)
	cfgc.Memo = s.tree
	engine, err := symexec.NewPrepared(next.prog, next.proc, next.graph, cfgc)
	if err != nil {
		return nil, errKind(InvalidConfig, "", err)
	}

	// Invalidate: translate the trie into the new version's key space,
	// dropping what the edit touched — or everything, when the symbolic
	// inputs themselves diverged.
	sig := engine.MemoSignature()
	var kept, dropped int
	if s.prevSig != "" && s.prevSig != sig {
		dropped = s.tree.Invalidate()
	} else {
		kept, dropped = s.tree.Rekey(nodeCorrespondence(d))
	}
	// Advance the trie's step clock before the run: the engine stamps every
	// node it touches with the new generation, so post-run budget
	// enforcement can tell this step's working set from retained branches.
	s.tree.BeginStep()

	res, err := s.a.runJob(idise.Job{
		BaseProc:  s.prev.proc,
		BaseGraph: s.prev.graph,
		Diff:      d,
		Engine:    engine,
		Opts:      idise.Options{TransitiveWrites: s.a.conf.transitiveWrites},
	})
	if err != nil {
		// The run started mutating the trie; only a fresh recording is
		// trustworthy now.
		s.tree = &memo.Tree{}
		s.prevSig = ""
		return nil, err
	}

	s.step++
	// Hold the trie to its node budget (no-op when none is set) now that no
	// engine holds trie pointers; evicted subtrees re-solve cold if a later
	// version needs them again.
	evicted := s.tree.Enforce()
	nodes, bytes := s.tree.Usage()
	st := res.internal.Summary.Stats
	res.Stats.Memo = MemoStats{
		Enabled:            true,
		Step:               s.step,
		MemoHits:           st.MemoHits,
		StatesReplayed:     st.MemoStatesReplayed,
		StatesExploredLive: st.MemoStatesLive,
		NodesKept:          kept,
		NodesInvalidated:   dropped,
		NodesEvicted:       evicted,
		TrieNodes:          nodes,
		TrieBytes:          bytes,
	}
	s.prev = next
	s.prevSig = sig
	return res, nil
}

// nodeCorrespondence builds the trie-rekeying map for one step: the diff's
// statement-key correspondence (strictly unchanged pairs only) plus the
// reserved keys of the statement-less nodes, which correspond in any two
// versions.
func nodeCorrespondence(d *diff.Result) map[string]string {
	corr := d.Correspondence().BaseToMod
	corr[cfg.StableKeyBegin] = cfg.StableKeyBegin
	corr[cfg.StableKeyEnd] = cfg.StableKeyEnd
	corr[cfg.StableKeyError] = cfg.StableKeyError
	return corr
}
