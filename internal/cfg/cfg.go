// Package cfg builds and analyzes control flow graphs for mini-language
// procedures.
//
// The graph model follows Definition 3.1 of the DiSE paper: a CFG is a
// directed graph with a single begin node and a single end node; every node
// is reachable from begin and reaches end. Statements map to nodes as
// follows:
//
//   - assignments become Write nodes (Definition 3.5) carrying a Def variable
//     (Definition 3.6) and a Use set (Definition 3.7),
//   - if/while conditions become Cond nodes (Definition 3.4) with a true and
//     a false successor,
//   - assert statements are de-sugared (paper §5.1) into a Cond node whose
//     false successor is a distinguished Error node that flows to end,
//   - skip becomes a Nop node; return becomes a Nop node whose only successor
//     is end.
//
// The package also provides the relational analyses the DiSE algorithms
// consume: IsCFGPath (Definition 3.2), post-dominance (Definition 3.8),
// control dependence (Definition 3.9), and strongly connected components for
// the CheckLoops procedure (paper Fig. 6).
package cfg

import (
	"fmt"

	"dise/internal/lang/ast"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	KindBegin NodeKind = iota
	KindEnd
	KindCond  // conditional branch instruction (member of Cond set)
	KindWrite // write instruction (member of Write set)
	KindNop   // skip, return
	KindError // assertion-failure sink
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindEnd:
		return "end"
	case KindCond:
		return "cond"
	case KindWrite:
		return "write"
	case KindNop:
		return "nop"
	case KindError:
		return "error"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// EdgeLabel distinguishes branch outcomes.
type EdgeLabel int

// Edge labels. Next is the unconditional fall-through.
const (
	EdgeNext EdgeLabel = iota
	EdgeTrue
	EdgeFalse
)

// String renders the label.
func (l EdgeLabel) String() string {
	switch l {
	case EdgeTrue:
		return "true"
	case EdgeFalse:
		return "false"
	}
	return ""
}

// Edge is a directed CFG edge.
type Edge struct {
	From, To *Node
	Label    EdgeLabel
}

// Node is a CFG node.
type Node struct {
	ID   int
	Kind NodeKind
	Line int    // source line of the originating statement (0 for begin/end)
	Text string // short label: the statement or condition text

	// Stmt is the originating AST statement; nil for begin/end/error nodes.
	Stmt ast.Stmt
	// Cond is the branch condition for Cond nodes, nil otherwise.
	Cond ast.Expr

	// Def is the variable written at a Write node ("" = ⊥, Definition 3.6).
	Def string
	// Use is the set of variables read at this node (Definition 3.7).
	Use map[string]bool

	// Succs are outgoing edges in order; a Cond node has exactly two, the
	// true edge first. Other nodes have at most one.
	Succs []Edge
	// Preds are incoming edges.
	Preds []Edge
}

// IsCond reports membership in the Cond set (Definition 3.4).
func (n *Node) IsCond() bool { return n.Kind == KindCond }

// IsWrite reports membership in the Write set (Definition 3.5).
func (n *Node) IsWrite() bool { return n.Kind == KindWrite }

// TrueSucc returns the true-branch successor of a Cond node.
func (n *Node) TrueSucc() *Node {
	for _, e := range n.Succs {
		if e.Label == EdgeTrue {
			return e.To
		}
	}
	return nil
}

// FalseSucc returns the false-branch successor of a Cond node.
func (n *Node) FalseSucc() *Node {
	for _, e := range n.Succs {
		if e.Label == EdgeFalse {
			return e.To
		}
	}
	return nil
}

// String renders "n3(write l7: PedalCmd = ...)".
func (n *Node) String() string {
	if n.Line > 0 {
		return fmt.Sprintf("n%d(%s l%d: %s)", n.ID, n.Kind, n.Line, n.Text)
	}
	return fmt.Sprintf("n%d(%s)", n.ID, n.Kind)
}

// Graph is the CFG of a single procedure plus cached analyses.
type Graph struct {
	Proc  *ast.Procedure
	Nodes []*Node // indexed by ID
	Begin *Node
	End   *Node
	Error *Node // nil unless the procedure contains asserts

	// stmtNode maps each AST statement to its CFG node (the Cond node for
	// if/while, the Write node for assignments).
	stmtNode map[ast.Stmt]*Node

	// Lazily computed analyses; see analysis.go.
	reach      []Bitset
	pdom       []Bitset
	sccID      []int
	sccList    [][]*Node
	dist       [][]int32
	stableKeys map[int]string
}

// Reserved stable keys of the nodes that exist independently of any source
// statement. They are identical in every graph, so they correspond across
// any two program versions.
const (
	StableKeyBegin = "^begin"
	StableKeyEnd   = "$end"
	StableKeyError = "!assert-fail"
)

// ensureStableKeys computes the node → stable-key map. Statement nodes take
// the structural path key of their originating statement (ast.StmtKeys);
// begin, end and the assert-failure sink take the reserved keys above.
func (g *Graph) ensureStableKeys() {
	if g.stableKeys != nil {
		return
	}
	keys := make(map[int]string, len(g.Nodes))
	stmtKeys := ast.StmtKeys(g.Proc)
	for _, n := range g.Nodes {
		switch {
		case n == g.Begin:
			keys[n.ID] = StableKeyBegin
		case n == g.End:
			keys[n.ID] = StableKeyEnd
		case n == g.Error:
			keys[n.ID] = StableKeyError
		default:
			keys[n.ID] = stmtKeys[n.Stmt]
		}
	}
	g.stableKeys = keys
}

// StableKeys returns the map from node ID to the node's stable key: an
// identity derived from the originating statement's structural position, not
// from node numbering or source lines. Two builds of the same source assign
// identical keys, and the cross-version correspondence map of internal/diff
// relates the keys of unchanged statements between two program versions —
// which is what lets the memoized execution-tree trie (internal/memo)
// recognize a node across an edit. The returned map is the graph's cache:
// callers must treat it as read-only.
func (g *Graph) StableKeys() map[int]string {
	g.ensureStableKeys()
	return g.stableKeys
}

// NodeFor returns the CFG node created for statement s, or nil.
func (g *Graph) NodeFor(s ast.Stmt) *Node { return g.stmtNode[s] }

// NodeAtLine returns the first statement node whose source line is line, or
// nil. Lines identify nodes uniquely in the pretty-printed form used by the
// artifacts (one statement per line), which mirrors how the paper labels CFG
// nodes with source lines.
func (g *Graph) NodeAtLine(line int) *Node {
	for _, n := range g.Nodes {
		if n.Line == line && n.Stmt != nil {
			return n
		}
	}
	return nil
}

// Size returns the number of nodes including begin and end.
func (g *Graph) Size() int { return len(g.Nodes) }

// StatementNodes returns the nodes that correspond to source statements
// (Cond, Write, Nop), in ID order — i.e. excluding begin/end/error.
func (g *Graph) StatementNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case KindCond, KindWrite, KindNop:
			out = append(out, n)
		}
	}
	return out
}

// builder accumulates nodes while walking the AST.
type builder struct {
	g *Graph
	// pendingEnd records edges that must target the end node (returns and the
	// assert-failure sink) but are created before the end node exists.
	pendingEnd []dangling
}

// Build constructs the CFG for procedure pr.
func Build(pr *ast.Procedure) *Graph {
	g := &Graph{Proc: pr, stmtNode: map[ast.Stmt]*Node{}}
	b := &builder{g: g}
	g.Begin = b.newNode(KindBegin, 0, "begin", nil)
	// Build the body; collect dangling exits that flow to end.
	entry, exits := b.buildStmts(pr.Body.Stmts)
	g.End = b.newNode(KindEnd, 0, "end", nil)
	if entry == nil {
		// Empty body: begin flows straight to end.
		b.edge(g.Begin, g.End, EdgeNext)
	} else {
		b.edge(g.Begin, entry, EdgeNext)
		for _, x := range exits {
			b.edge(x.from, g.End, x.label)
		}
	}
	// Late-created return/assert-error edges already target g.End via
	// deferred wiring performed above; see pendingEnd handling in buildStmts.
	for _, pe := range b.pendingEnd {
		b.edge(pe.from, g.End, pe.label)
	}
	return g
}

// dangling is an edge whose target is not yet known.
type dangling struct {
	from  *Node
	label EdgeLabel
}

func (b *builder) newNode(kind NodeKind, line int, text string, stmt ast.Stmt) *Node {
	n := &Node{
		ID:   len(b.g.Nodes),
		Kind: kind,
		Line: line,
		Text: text,
		Stmt: stmt,
		Use:  map[string]bool{},
	}
	b.g.Nodes = append(b.g.Nodes, n)
	if stmt != nil {
		b.g.stmtNode[stmt] = n
	}
	return n
}

func (b *builder) edge(from, to *Node, label EdgeLabel) {
	e := Edge{From: from, To: to, Label: label}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// buildStmts builds the subgraph for a statement list. It returns the entry
// node (nil if the list creates no nodes) and the dangling exits that should
// be wired to whatever follows.
func (b *builder) buildStmts(stmts []ast.Stmt) (*Node, []dangling) {
	var entry *Node
	// exits are the dangling out-edges of the portion built so far.
	var exits []dangling
	attach := func(n *Node) {
		if entry == nil {
			entry = n
		}
		for _, x := range exits {
			b.edge(x.from, n, x.label)
		}
		exits = nil
	}
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.Assign:
			n := b.newNode(KindWrite, s.Pos().Line, s.String(), s)
			n.Def = s.Name
			for v := range ast.Vars(s.Value) {
				n.Use[v] = true
			}
			attach(n)
			exits = []dangling{{n, EdgeNext}}
		case *ast.Skip:
			n := b.newNode(KindNop, s.Pos().Line, "skip", s)
			attach(n)
			exits = []dangling{{n, EdgeNext}}
		case *ast.Return:
			n := b.newNode(KindNop, s.Pos().Line, "return", s)
			attach(n)
			b.pendingEnd = append(b.pendingEnd, dangling{n, EdgeNext})
			// No fall-through: statements after return are unreachable and,
			// to keep the single-entry/single-exit invariant simple, we stop
			// wiring the remainder of this block.
			return entry, nil
		case *ast.Assert:
			n := b.newNode(KindCond, s.Pos().Line, "assert "+s.Cond.String(), s)
			n.Cond = s.Cond
			for v := range ast.Vars(s.Cond) {
				n.Use[v] = true
			}
			attach(n)
			if b.g.Error == nil {
				b.g.Error = b.newNode(KindError, 0, "assert-fail", nil)
				b.pendingEnd = append(b.pendingEnd, dangling{b.g.Error, EdgeNext})
			}
			b.edge(n, b.g.Error, EdgeFalse)
			exits = []dangling{{n, EdgeTrue}}
		case *ast.If:
			n := b.newNode(KindCond, s.Pos().Line, s.Cond.String(), s)
			n.Cond = s.Cond
			for v := range ast.Vars(s.Cond) {
				n.Use[v] = true
			}
			attach(n)
			thenEntry, thenExits := b.buildStmts(s.Then.Stmts)
			if thenEntry != nil {
				b.edge(n, thenEntry, EdgeTrue)
				exits = append(exits, thenExits...)
			} else {
				exits = append(exits, dangling{n, EdgeTrue})
			}
			if s.Else != nil {
				elseEntry, elseExits := b.buildStmts(s.Else.Stmts)
				if elseEntry != nil {
					b.edge(n, elseEntry, EdgeFalse)
					exits = append(exits, elseExits...)
				} else {
					exits = append(exits, dangling{n, EdgeFalse})
				}
			} else {
				exits = append(exits, dangling{n, EdgeFalse})
			}
		case *ast.While:
			n := b.newNode(KindCond, s.Pos().Line, s.Cond.String(), s)
			n.Cond = s.Cond
			for v := range ast.Vars(s.Cond) {
				n.Use[v] = true
			}
			attach(n)
			bodyEntry, bodyExits := b.buildStmts(s.Body.Stmts)
			if bodyEntry != nil {
				b.edge(n, bodyEntry, EdgeTrue)
				for _, x := range bodyExits {
					b.edge(x.from, n, x.label) // back edges
				}
			} else {
				b.edge(n, n, EdgeTrue) // empty loop body: self loop
			}
			exits = []dangling{{n, EdgeFalse}}
		case *ast.Block:
			blkEntry, blkExits := b.buildStmts(s.Stmts)
			if blkEntry != nil {
				attach(blkEntry)
				exits = blkExits
			}
		case *ast.Call:
			panic(fmt.Sprintf("cfg.Build: procedure contains a call to %q; expand calls with the inline package before building the CFG", s.Callee))
		default:
			panic(fmt.Sprintf("cfg.Build: unknown statement %T", s))
		}
	}
	return entry, exits
}
