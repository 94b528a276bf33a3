// Package memo implements the persistent execution-tree trie behind
// version-chain sessions: a memo of one program version's symbolic
// exploration that the next version's directed search replays instead of
// re-solving.
//
// The trie mirrors the symbolic execution tree. Each node records the stable
// key of the CFG node a state executed (cfg.Graph.StableKeys), the solver
// verdicts of the branch constraints evaluated there (constraint, sat/unsat,
// witness model), and the feasible successors in execution order — each
// tagged with the branch arm that produced it and with the arm's
// path-condition contribution (the branch constraint appended to the path
// condition, or nil for arms that add no conjunct). Constraints are
// hash-consed (internal/sym): the smart constructors canonicalize and
// intern them, so comparing a recorded constraint against the current run's
// is a pointer compare, across session steps and engine instances alike.
//
// # Soundness
//
// A recorded verdict is a fact about a constraint conjunction: "under the
// path condition leading here, branch constraint c was (un)satisfiable,
// with this witness". Reusing it for a state is sound exactly when the
// state's path condition is the same conjunction — nothing else matters,
// not even whether the surrounding statements are the "same" statements.
// The trie enforces precisely that criterion structurally, through the
// chain invariant: a successor state is attached to a recorded child only
// when the child's recorded path-condition contribution (ViaCond) equals
// the contribution the current run just computed for that arm; otherwise
// the successor gets a fresh, empty node. Inductively, every attached
// node's recorded data was produced under the state's exact path-condition
// sequence, so verdict lookups (matched by structural equality) decide
// exactly the conjunction the solver would be asked. A changed write
// therefore keeps its recorded subtree alive — writes contribute no
// conjunct, and any downstream constraint its new value influences compares
// unequal and diverges onto fresh nodes right there. Children an expansion
// does not re-match are retained, not discarded: their conjunctions simply
// do not occur in the current version, and a later version that produces
// them again — most commonly by reverting an edit — re-matches them with
// their whole recorded subtrees. The trie is thus an accumulator over the
// chain's history, growing with the distinct conjunctions ever explored.
//
// Node identities (stable keys plus the diff's cross-version correspondence
// map) layer on top: Rekey translates surviving keys into the next
// version's key space, marks the statements the edit touched as
// identity-less, and feeds the kept/invalidated observability counters.
// Identity never substitutes for the chain invariant.
//
// Pruning decisions are deliberately not replayable: which paths a DiSE run
// prunes is order-sensitive and change-dependent (it depends on which nodes
// THIS version pair affected), so every run re-decides them live against
// its own affected sets (see internal/dise); the trie records a Pruned
// marker for observability only. Unknown verdicts (budget- and
// interrupt-dependent) are never recorded.
//
// # Concurrency
//
// One exploration expands each execution-tree state exactly once, and the
// scheduler publishes states to workers under its own synchronization, so
// each trie node is written by exactly one goroutine per run with
// happens-before edges to its children's writers. The Pruned marker is the
// one field written from the committed walk while a speculative worker may
// be writing result fields; the fields are distinct words.
package memo

import (
	"sort"

	"dise/internal/solver"
	"dise/internal/sym"
)

// Verdict is one recorded solver decision: under the path condition leading
// to the trie node, the branch constraint Cond was satisfiable or not, with
// Model the deterministic witness when Sat. Constraints are matched by
// sym.Equal, which on hash-consed expressions is a pointer compare: the
// smart constructors canonicalize and intern, so a structurally equal
// constraint built by a later session step is the very same node — no tree
// walk, no rendering, on any comparison the replay makes.
type Verdict struct {
	Cond  sym.Expr
	Sat   bool
	Model *solver.Model // shared read-only with the run that recorded it
}

// eqExpr compares two optional constraint contributions: both absent, or
// structurally equal. Hash-consing makes the pointer check decisive in both
// directions for interned expressions; sym.Equal's walk only runs for raw
// literals built by tests.
func eqExpr(a, b sym.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a == b || sym.Equal(a, b)
}

// Branch arm tags for Node.Via.
const (
	// ViaFlow marks the successor of a non-branching node.
	ViaFlow int8 = -1
	// ViaTrue and ViaFalse mark the arm of a conditional that produced the
	// successor. Children are matched by arm, never by position, so a
	// diamond-shaped CFG — both arms reaching the same join node — cannot
	// inherit the other arm's context.
	ViaTrue  int8 = 0
	ViaFalse int8 = 1
)

// Node is one node of the trie: the memo of one execution-tree state.
type Node struct {
	// Key is the stable key of the CFG node the state executes, kept in the
	// key space of the session's current version (Rekey translates it; a
	// structural divergence re-learns it at visit time). Identity is
	// observability and invalidation policy — data validity rests on the
	// chain invariant, not on Key.
	Key string
	// Via tags which arm of the parent produced this state; ViaCond is that
	// arm's path-condition contribution — the branch constraint appended to
	// the path condition, or nil for arms that append nothing (fall-through
	// edges and constant-folded branches). The chain of ViaCond values from
	// the root IS the node's path condition.
	Via     int8
	ViaCond sym.Expr
	// Expanded reports that a recorded run expanded this state, i.e. the
	// Verdicts and Succs below are populated facts rather than a placeholder.
	Expanded bool
	// Pruned reports that the recorded run's pruner cut this state without
	// expanding it — recorded for observability, never replayed.
	Pruned bool
	// Verdicts are the solver decisions taken while expanding this state.
	// Every entry was recorded under the node's chain conjunction, so
	// entries from different session steps (e.g. an upstream write changed a
	// constraint's rendering and both renderings were solved here) coexist
	// as facts about the same prefix.
	Verdicts []Verdict
	// Succs are the feasible successor states' trie nodes in execution order.
	Succs []*Node

	// gen is the tree generation (session step clock, Tree.BeginStep) at
	// which a run last touched this node — entered it, attached it, or
	// created it. Eviction prefers subtrees whose every node is stale:
	// retained-but-unmatched branches that exist only to serve reverted
	// edits. hits counts verdict lookups answered from this node, ever, for
	// hit-rate-aware retention among equally stale subtrees. Both are
	// written only by the node's single per-run writer (the engine's
	// concurrency discipline, see the package comment) or by the tree's
	// owner between runs.
	gen  uint64
	hits uint32
}

// Touch stamps the node with the current tree generation. The engine calls
// it on every node it enters or attaches; eviction treats untouched nodes
// as cold.
func (n *Node) Touch(gen uint64) {
	if gen > n.gen {
		n.gen = gen
	}
}

// Lookup returns the recorded verdict for a branch constraint, matched by
// structural equality.
func (n *Node) Lookup(cond sym.Expr) (Verdict, bool) {
	for _, v := range n.Verdicts {
		if eqExpr(v.Cond, cond) {
			n.hits++
			return v, true
		}
	}
	return Verdict{}, false
}

// Record appends a verdict. Callers must not record Unknown results.
func (n *Node) Record(cond sym.Expr, sat bool, model *solver.Model) {
	n.Verdicts = append(n.Verdicts, Verdict{Cond: cond, Sat: sat, Model: model})
}

// Child returns the recorded successor reached via the given arm with the
// given path-condition contribution, or nil. The ViaCond match is the chain
// invariant's induction step: a child whose recorded contribution differs
// belongs to a different conjunction and must not be attached.
func (n *Node) Child(via int8, viaCond sym.Expr) *Node {
	for _, c := range n.Succs {
		if c != nil && c.Via == via && eqExpr(c.ViaCond, viaCond) {
			return c
		}
	}
	return nil
}

// Tree is the session-persistent trie. The zero value is an empty memo with
// no node budget: it grows with the distinct conjunctions ever explored,
// exactly as before budgets existed.
type Tree struct {
	root *Node
	// gen is the step clock: BeginStep advances it before each run, and the
	// engine stamps every node it touches with the current value, so after a
	// run "gen < t.gen" identifies retained-but-unmatched nodes.
	gen uint64
	// maxNodes is the node budget Enforce holds the trie to; <= 0 disables
	// eviction entirely.
	maxNodes int
	// evictedSubtrees/evictedNodes count Enforce's work, cumulatively.
	evictedSubtrees int64
	evictedNodes    int64
}

// SetNodeBudget bounds the trie to at most n nodes at each Enforce call;
// n <= 0 disables eviction (the default).
func (t *Tree) SetNodeBudget(n int) { t.maxNodes = n }

// BeginStep advances the step clock. The session calls it before each run,
// so the run's engine stamps touched nodes with the new generation.
func (t *Tree) BeginStep() { t.gen++ }

// Gen returns the current step generation.
func (t *Tree) Gen() uint64 { return t.gen }

// EvictionStats returns the cumulative (subtrees, nodes) evicted by Enforce.
func (t *Tree) EvictionStats() (subtrees, nodes int64) {
	return t.evictedSubtrees, t.evictedNodes
}

// Root returns the trie root, creating it on first use. The root's chain is
// the empty path condition, which every version shares — provided the
// symbolic inputs are comparable at all, which the session checks separately
// (symexec.Engine.MemoSignature) and enforces with Invalidate.
func (t *Tree) Root(key string) *Node {
	if t.root == nil {
		t.root = &Node{Key: key, Via: ViaFlow}
	}
	return t.root
}

// Size returns the number of nodes in the trie.
func (t *Tree) Size() int {
	nodes, _ := t.Usage()
	return nodes
}

// Invalidate drops the whole trie — the session calls it when a version edit
// changed the symbolic inputs (parameters, globals, domains, backend) and no
// recorded conjunction is comparable. It returns the number of nodes dropped.
func (t *Tree) Invalidate() int {
	n := t.Size()
	t.root = nil
	return n
}

// Rekey translates the trie from the previous version's key space into the
// next version's, using the cross-version correspondence map baseToMod
// (internal/diff): a node whose key corresponds — the diff proved its
// statement strictly unchanged — is rewritten in place and counted kept; a
// node whose statement changed, moved or disappeared loses its identity
// (the key is cleared and re-learned at the next visit) and is counted
// invalidated. Identity loss marks the region the edit touched — the walk
// will not extend recorded chains through diverging constraints there, by
// the chain invariant — but the node's recorded facts are retained: they
// remain reachable wherever the edit's dataflow does not actually change a
// rendering, and a later version that reverts the edit re-matches them
// outright. It returns the kept/invalidated counts; nodes that already lost
// their identity on an earlier step and were never revisited since count
// toward neither, so each step's counters report that step's edit, not the
// chain's history.
func (t *Tree) Rekey(baseToMod map[string]string) (kept, invalidated int) {
	if t.root == nil {
		return 0, 0
	}
	return rekey(t.root, baseToMod)
}

// Approximate per-node byte costs for Tree.Bytes: the Node struct with its
// slice headers, one Verdict, one witness-model entry, and one successor
// pointer. Constraint expressions (ViaCond, Verdict.Cond) are hash-consed
// and shared across the whole process, so they are accounted by the intern
// table's estimator, not per trie node.
const (
	nodeBaseBytes   = 144
	verdictBytes    = 56
	modelEntryBytes = 40
	succPtrBytes    = 8
)

// Bytes estimates the trie's retained heap footprint. An estimate for
// capacity accounting, not an exact meter; see Usage.
func (t *Tree) Bytes() int64 {
	_, bytes := t.Usage()
	return bytes
}

// Usage returns the trie's node count (Size) and estimated retained bytes
// (Bytes) from one O(n) walk, intended to be sampled once per session step;
// the service store sums the bytes across tenants to enforce a global
// trie-byte ceiling.
func (t *Tree) Usage() (nodes int, bytes int64) {
	return usage(t.root)
}

func usage(n *Node) (nodes int, bytes int64) {
	if n == nil {
		return 0, 0
	}
	nodes, bytes = 1, int64(nodeBaseBytes+len(n.Key))
	for _, v := range n.Verdicts {
		bytes += verdictBytes + int64(v.Model.Len())*modelEntryBytes
	}
	bytes += int64(cap(n.Succs)) * succPtrBytes
	for _, c := range n.Succs {
		cn, cb := usage(c)
		nodes += cn
		bytes += cb
	}
	return nodes, bytes
}

// Enforce evicts whole subtrees until the trie fits the node budget,
// returning the number of nodes dropped (0 when no budget is set or the
// trie already fits). The session calls it after each run, between steps,
// when no engine holds trie pointers.
//
// Eviction order is coldest-first over subtree aggregates: by the youngest
// generation anywhere in the subtree (so retained-but-unmatched branches —
// untouched by the current step, kept only to serve reverted edits — go
// before anything the step replayed), then by fewest recorded lookup hits
// (hit-rate-aware retention among equally stale branches), then biggest
// subtree first (fewest evictions to fit), with preorder position as the
// deterministic tiebreak. The root is never evicted. Dropping a subtree is
// always sound: its conjunctions simply re-solve cold if a later version
// produces them again — the chain invariant never replays what is no
// longer recorded.
func (t *Tree) Enforce() int {
	if t.maxNodes <= 0 || t.root == nil {
		return 0
	}
	total := t.Size()
	if total <= t.maxNodes {
		return 0
	}

	type subtree struct {
		n      *Node
		parent *Node
		order  int
		size   int
		maxGen uint64
		hits   uint64
	}
	parentOf := make(map[*Node]*Node)
	var candidates []*subtree
	order := 0
	var walk func(n, parent *Node) *subtree
	walk = func(n, parent *Node) *subtree {
		in := &subtree{n: n, parent: parent, order: order, size: 1, maxGen: n.gen, hits: uint64(n.hits)}
		order++
		parentOf[n] = parent
		for _, c := range n.Succs {
			if c == nil {
				continue
			}
			ci := walk(c, n)
			in.size += ci.size
			if ci.maxGen > in.maxGen {
				in.maxGen = ci.maxGen
			}
			in.hits += ci.hits
		}
		if parent != nil {
			candidates = append(candidates, in)
		}
		return in
	}
	walk(t.root, nil)

	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if a.maxGen != b.maxGen {
			return a.maxGen < b.maxGen
		}
		if a.hits != b.hits {
			return a.hits < b.hits
		}
		if a.size != b.size {
			return a.size > b.size
		}
		return a.order < b.order
	})

	drop := make(map[*Node]bool)
	dropped := func(n *Node) bool {
		for p := n; p != nil; p = parentOf[p] {
			if drop[p] {
				return true
			}
		}
		return false
	}
	removed := 0
	for _, in := range candidates {
		if total-removed <= t.maxNodes {
			break
		}
		if dropped(in.n) {
			continue
		}
		drop[in.n] = true
		removed += in.size
		t.evictedSubtrees++
	}
	if removed == 0 {
		return 0
	}

	var prune func(n *Node)
	prune = func(n *Node) {
		out := n.Succs[:0]
		for _, c := range n.Succs {
			if c == nil || drop[c] {
				continue
			}
			out = append(out, c)
			prune(c)
		}
		// Clear the tail so the backing array stops pinning dropped subtrees.
		for i := len(out); i < len(n.Succs); i++ {
			n.Succs[i] = nil
		}
		n.Succs = out
	}
	prune(t.root)
	t.evictedNodes += int64(removed)
	return removed
}

func rekey(n *Node, baseToMod map[string]string) (kept, invalidated int) {
	if n.Key != "" {
		if nk, ok := baseToMod[n.Key]; ok {
			n.Key = nk
			kept++
		} else {
			invalidated++
			n.Key = ""
		}
	}
	for _, c := range n.Succs {
		if c == nil {
			continue
		}
		k, i := rekey(c, baseToMod)
		kept += k
		invalidated += i
	}
	return kept, invalidated
}
