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
// # Accounting
//
// A session steps through the chain paying for what each step changed, not
// for the trie it has accumulated. Nodes share one Slot per stable key, and
// each slot counts the nodes that carry it, so Rekey translates every
// distinct key once and reports kept and invalidated nodes as sums of those
// counts. The tree keeps its node count and byte estimate running as nodes
// are created, re-keyed, recorded into, expanded and evicted, so Usage,
// Size and Bytes read two fields, and Enforce walks the trie only when it
// is over its node budget. Every mutation therefore goes through the Tree:
// Root, Enter, Expand, Record, Rekey, Enforce and Invalidate.
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
// One writer per run: an exploration runs on one engine and one goroutine,
// which expands each execution-tree state exactly once, so every trie node
// a run touches — and the tree's slot table and running counts — is written
// by that goroutine alone. Between runs the tree's owner (a session, which
// serializes its steps) rekeys and trims it. A tree is never shared by two
// concurrent runs.
package memo

import (
	"slices"
	"sort"

	"dise/internal/slab"
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

// Slot is one stable key, shared by every trie node that carries it, with
// the count of those nodes. Rekey rewrites a slot once for all of its
// nodes. A slot is valid until the tree's next Rekey or Invalidate: an
// engine resolves the slots of its graph's keys when its run starts
// (Tree.Slot), after the session has rekeyed the trie.
type Slot struct {
	key  string
	refs int
}

// Node is one node of the trie: the memo of one execution-tree state.
type Node struct {
	// slot carries the stable key of the CFG node the state executes, kept
	// in the key space of the session's current version (Rekey translates
	// it; a structural divergence re-learns it at visit time). nil, or a
	// slot Rekey cleared, means the node has no identity. Identity is
	// observability and invalidation policy — data validity rests on the
	// chain invariant, not on the key.
	slot *Slot
	// Via tags which arm of the parent produced this state; ViaCond is that
	// arm's path-condition contribution — the branch constraint appended to
	// the path condition, or nil for arms that append nothing (fall-through
	// edges and constant-folded branches). The chain of ViaCond values from
	// the root IS the node's path condition.
	Via int8
	// Expanded reports that a recorded run expanded this state, i.e. the
	// verdicts and successors below are populated facts rather than a
	// placeholder.
	Expanded bool
	// Pruned reports that the recorded run's pruner cut this state without
	// expanding it — recorded for observability, never replayed.
	Pruned bool
	// hits counts verdict lookups answered from this node, ever, for
	// hit-rate-aware retention among equally stale subtrees.
	hits    uint32
	ViaCond sym.Expr
	// verdicts are the solver decisions taken while expanding this state.
	// Every entry was recorded under the node's chain conjunction, so
	// entries from different session steps (e.g. an upstream write changed a
	// constraint's rendering and both renderings were solved here) coexist
	// as facts about the same prefix.
	verdicts []Verdict
	// succs are the feasible successor states' trie nodes in execution
	// order, followed by retained children no later expansion re-matched.
	succs []*Node
	// gen is the tree generation (session step clock, Tree.BeginStep) at
	// which a run last touched this node — entered it, attached it, or
	// created it. Eviction prefers subtrees whose every node is stale:
	// retained-but-unmatched branches that exist only to serve reverted
	// edits. Both gen and hits are written only by the node's single per-run
	// writer (the engine's concurrency discipline, see the package comment)
	// or by the tree's owner between runs.
	gen uint64
}

// Key returns the node's stable key, or "" when it has none.
func (n *Node) Key() string {
	if n.slot == nil {
		return ""
	}
	return n.slot.key
}

func (n *Node) touch(gen uint64) {
	if gen > n.gen {
		n.gen = gen
	}
}

// Lookup returns the recorded verdict for a branch constraint, matched by
// structural equality.
func (n *Node) Lookup(cond sym.Expr) (Verdict, bool) {
	for _, v := range n.verdicts {
		if eqExpr(v.Cond, cond) {
			n.hits++
			return v, true
		}
	}
	return Verdict{}, false
}

// Child returns the recorded successor reached via the given arm with the
// given path-condition contribution, or nil. The ViaCond match is the chain
// invariant's induction step: a child whose recorded contribution differs
// belongs to a different conjunction and must not be attached.
func (n *Node) Child(via int8, viaCond sym.Expr) *Node {
	for _, c := range n.succs {
		if c.Via == via && eqExpr(c.ViaCond, viaCond) {
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
	// run stamps every node it touches with the current value, so after a
	// run "gen < t.gen" identifies retained-but-unmatched nodes.
	gen uint64
	// maxNodes is the node budget Enforce holds the trie to; <= 0 disables
	// eviction entirely.
	maxNodes int
	// evictedSubtrees/evictedNodes count Enforce's work, cumulatively.
	evictedSubtrees int64
	evictedNodes    int64
	// nodes and bytes are Usage, kept running by every mutation.
	nodes int
	bytes int64
	// slots maps each key of the current key space to its slot; live lists
	// every slot that may still carry nodes, for Rekey. They differ only
	// when a correspondence map sends two keys to one, which leaves two
	// live slots with the same key.
	slots map[string]*Slot
	live  []*Slot
	// nodeSlab and succSlab are the chunks new nodes and successor lists
	// are carved from: a recorded run creates one node and one list per
	// state, and carving turns those into one allocation per chunk.
	nodeSlab []Node
	succSlab []*Node
}

// Slab chunk lengths: 64 nodes (about 6 KB) and 512 successor pointers
// (4 KB). A chunk stays reachable while any node or list carved from it
// does; evicted nodes and abandoned lists are cleared, so a chunk kept for
// its survivors pins nothing else.
const (
	nodeSlabLen = 64
	succSlabLen = 512
)

// SetNodeBudget bounds the trie to at most n nodes at each Enforce call;
// n <= 0 disables eviction (the default).
func (t *Tree) SetNodeBudget(n int) { t.maxNodes = n }

// BeginStep advances the step clock. The session calls it before each run,
// so the run stamps touched nodes with the new generation.
func (t *Tree) BeginStep() { t.gen++ }

// EvictionStats returns the cumulative (subtrees, nodes) evicted by Enforce.
func (t *Tree) EvictionStats() (subtrees, nodes int64) {
	return t.evictedSubtrees, t.evictedNodes
}

// Slot returns the slot of a stable key in the current key space, creating
// it on first use; the empty key has none (nil).
func (t *Tree) Slot(key string) *Slot {
	if key == "" {
		return nil
	}
	if s, ok := t.slots[key]; ok {
		return s
	}
	if t.slots == nil {
		t.slots = map[string]*Slot{}
	}
	s := &Slot{key: key}
	t.slots[key] = s
	t.live = append(t.live, s)
	return s
}

// setSlot moves n onto slot s, keeping the slot counts and the byte
// estimate (which charges each node its key's length) in step.
func (t *Tree) setSlot(n *Node, s *Slot) {
	if old := n.slot; old != nil {
		old.refs--
		t.bytes -= int64(len(old.key))
	}
	if s != nil {
		s.refs++
		t.bytes += int64(len(s.key))
	}
	n.slot = s
}

// newNode creates a counted node; the caller links it into the trie.
func (t *Tree) newNode(s *Slot, via int8, viaCond sym.Expr) *Node {
	n := slab.New(&t.nodeSlab, nodeSlabLen)
	*n = Node{Via: via, ViaCond: viaCond}
	t.nodes++
	t.bytes += nodeBaseBytes
	t.setSlot(n, s)
	return n
}

// Root returns the trie root, creating it on first use. The root's chain is
// the empty path condition, which every version shares — provided the
// symbolic inputs are comparable at all, which the session checks separately
// (symexec.Engine.MemoSignature) and enforces with Invalidate.
func (t *Tree) Root(key string) *Node {
	if t.root == nil {
		t.root = t.newNode(t.Slot(key), ViaFlow, nil)
	}
	return t.root
}

// Enter marks n as reached by the current step's run at the CFG node whose
// key slot is s: the node re-learns its identity (an edit may have shifted
// the walk's alignment, or Rekey cleared it) and is stamped with the
// current generation.
func (t *Tree) Enter(n *Node, s *Slot) {
	if n.slot != s {
		t.setSlot(n, s)
	}
	n.touch(t.gen)
}

// Record appends a verdict to n. Callers must not record Unknown results.
func (t *Tree) Record(n *Node, cond sym.Expr, sat bool, model *solver.Model) {
	n.verdicts = append(n.verdicts, Verdict{Cond: cond, Sat: sat, Model: model})
	t.bytes += verdictBytes + int64(model.Len())*modelEntryBytes
}

// Arm is one feasible successor of an expansion: the branch arm that
// produced it, that arm's path-condition contribution (nil when it appends
// no conjunct), and the key slot of the CFG node it executes next.
type Arm struct {
	Via  int8
	Cond sym.Expr
	Slot *Slot
}

// Expand records that n was expanded into the feasible successors arms, in
// execution order, and stores the successors' trie nodes in out[:len(arms)].
// A recorded child is reused only when both its branch arm and its
// path-condition contribution match (the chain invariant's induction step:
// matching by arm keeps a diamond-shaped join from inheriting the other
// arm's context, matching by contribution keeps recorded facts bound to
// their exact conjunction); otherwise the successor gets a fresh node.
// Recorded children the expansion did not re-match are retained behind the
// attached ones: their conjunctions simply do not occur in this version, but
// a later version may produce them again — most commonly when an edit is
// reverted, the dominant pattern of a version chain revisiting behaviors.
//
// A replay that re-attaches the recorded children in their recorded order
// keeps the list it has: rebuilt, it would be the same list. Otherwise the
// successor list is carved to hold exactly the attached children and the
// unmatched recorded ones, and the byte estimate charges that capacity.
func (t *Tree) Expand(n *Node, arms []Arm, out []*Node) {
	attached := out[:len(arms)]
	for i, a := range arms {
		c := n.Child(a.Via, a.Cond)
		if c == nil {
			c = t.newNode(a.Slot, a.Via, a.Cond)
		}
		c.touch(t.gen)
		attached[i] = c
	}
	n.Expanded = true
	old := n.succs
	if len(old) >= len(arms) && slices.Equal(old[:len(arms)], attached) {
		return
	}
	size := len(arms)
	for _, c := range old {
		if !slices.Contains(attached, c) {
			size++
		}
	}
	succs := slab.Slice(&t.succSlab, succSlabLen, size)[:0]
	succs = append(succs, attached...)
	for _, c := range old {
		if !slices.Contains(attached, c) {
			succs = append(succs, c)
		}
	}
	t.bytes += int64(cap(succs)-cap(old)) * succPtrBytes
	clear(old) // abandoned in its chunk: it must pin no nodes
	n.succs = succs
}

// Size returns the number of nodes in the trie.
func (t *Tree) Size() int { return t.nodes }

// Invalidate drops the whole trie — the session calls it when a version edit
// changed the symbolic inputs (parameters, globals, domains, backend) and no
// recorded conjunction is comparable. It returns the number of nodes dropped.
func (t *Tree) Invalidate() int {
	n := t.nodes
	t.root = nil
	t.nodes, t.bytes = 0, 0
	t.slots, t.live = nil, nil
	t.nodeSlab, t.succSlab = nil, nil
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
//
// The work is one map lookup per live slot: every node of a slot moves with
// it, and the counts are the slots' node counts.
func (t *Tree) Rekey(baseToMod map[string]string) (kept, invalidated int) {
	if t.root == nil {
		return 0, 0
	}
	clear(t.slots)
	live := t.live[:0]
	for _, s := range t.live {
		if s.refs == 0 {
			continue // no node carries it any more
		}
		nk, ok := baseToMod[s.key]
		if !ok {
			invalidated += s.refs
			t.bytes -= int64(s.refs * len(s.key))
			s.key = ""
			continue
		}
		kept += s.refs
		t.bytes += int64(s.refs * (len(nk) - len(s.key)))
		s.key = nk
		live = append(live, s)
		if _, dup := t.slots[nk]; !dup {
			t.slots[nk] = s
		}
	}
	clear(t.live[len(live):])
	t.live = live
	return kept, invalidated
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

// nodeBytes is one node's share of the byte estimate.
func nodeBytes(n *Node) int64 {
	b := int64(nodeBaseBytes + len(n.Key()) + cap(n.succs)*succPtrBytes)
	for _, v := range n.verdicts {
		b += verdictBytes + int64(v.Model.Len())*modelEntryBytes
	}
	return b
}

// Bytes estimates the trie's retained heap footprint. An estimate for
// capacity accounting, not an exact meter; see Usage.
func (t *Tree) Bytes() int64 { return t.bytes }

// Usage returns the trie's node count (Size) and estimated retained bytes
// (Bytes). Both are kept running by every mutation, so reading them is
// O(1); the service store sums the bytes across tenants to enforce a
// global trie-byte ceiling.
func (t *Tree) Usage() (nodes int, bytes int64) { return t.nodes, t.bytes }

// Enforce evicts whole subtrees until the trie fits the node budget,
// returning the number of nodes dropped (0 when no budget is set or the
// trie already fits — both decided without a walk). The session calls it
// after each run, between steps, when no engine holds trie pointers.
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
	if t.maxNodes <= 0 || t.root == nil || t.nodes <= t.maxNodes {
		return 0
	}
	total := t.nodes

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
		for _, c := range n.succs {
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
		out := n.succs[:0]
		for _, c := range n.succs {
			if drop[c] {
				t.release(c)
				continue
			}
			out = append(out, c)
			prune(c)
		}
		// Clear the tail so the backing array stops pinning dropped subtrees.
		// The capacity, which the byte estimate charges, is unchanged.
		clear(n.succs[len(out):])
		n.succs = out
	}
	prune(t.root)
	t.evictedNodes += int64(removed)
	return removed
}

// release takes an evicted subtree out of the running accounts and clears
// its nodes, so the slab chunks they share with surviving nodes pin
// nothing.
func (t *Tree) release(n *Node) {
	t.nodes--
	t.bytes -= nodeBytes(n)
	if n.slot != nil {
		n.slot.refs--
	}
	for _, c := range n.succs {
		t.release(c)
	}
	clear(n.succs)
	*n = Node{}
}
