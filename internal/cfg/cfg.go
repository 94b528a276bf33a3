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
// consume: IsCFGPath (Definition 3.2), post-dominance (Definition 3.8) as a
// post-dominator tree, control dependence (Definition 3.9) as one list of
// dependents per branch, and strongly connected components for the
// CheckLoops procedure (paper Fig. 6). Each is computed once per graph and
// takes space proportional to the graph and the relation it lists, except
// reachability, which keeps an n-bit row per strongly connected component.
package cfg

import (
	"fmt"
	"slices"
	"sync"

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
	Line int // source line of the originating statement (0 for begin/end)

	// Stmt is the originating AST statement; nil for begin/end/error nodes.
	Stmt ast.Stmt
	// Cond is the branch condition for Cond nodes, nil otherwise.
	Cond ast.Expr

	// Def is the variable written at a Write node ("" = ⊥, Definition 3.6).
	Def string
	// Use is the set of variables read at this node (Definition 3.7),
	// sorted and without duplicates.
	Use []string

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

// Text renders the node's short label: the statement or condition text.
// It is built on each call; nothing in the analyses reads it.
func (n *Node) Text() string {
	switch s := n.Stmt.(type) {
	case *ast.Assert:
		return "assert " + s.Cond.String()
	case *ast.If, *ast.While:
		return n.Cond.String()
	case *ast.Skip:
		return "skip"
	case *ast.Return:
		return "return"
	case nil:
		if n.Kind == KindError {
			return "assert-fail"
		}
		return n.Kind.String()
	}
	return n.Stmt.String()
}

// String renders "n3(write l7: PedalCmd = ...)".
func (n *Node) String() string {
	if n.Line > 0 {
		return fmt.Sprintf("n%d(%s l%d: %s)", n.ID, n.Kind, n.Line, n.Text())
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
	reach []Bitset
	// The post-dominator tree as preorder intervals: n's subtree is the
	// preorder range [pdPre[n], pdPre[n]+pdSize[n]); pdPre[n] = -1 marks a
	// node that does not reach End.
	pdPre, pdSize []int32
	// cdNodes[cdStart[n]:cdStart[n+1]] are the nodes control dependent on
	// n, in ID order.
	cdStart []int32
	cdNodes []*Node
	// sccNodes[sccStart[c]:sccStart[c+1]] are the members of component c,
	// in the order Tarjan's algorithm pops them.
	sccID    []int32
	sccStart []int32
	sccNodes []*Node

	keysOnce   sync.Once
	stableKeys []string
}

// Reserved stable keys of the nodes that exist independently of any source
// statement. They are identical in every graph, so they correspond across
// any two program versions.
const (
	StableKeyBegin = "^begin"
	StableKeyEnd   = "$end"
	StableKeyError = "!assert-fail"
)

// StableKeys returns the stable key of every node, indexed by node ID: an
// identity derived from the originating statement's structural position
// (ast.StmtKeys), not from node numbering or source lines; begin, end and
// the assert-failure sink take the reserved keys above. Two builds of the
// same source assign identical keys, and the cross-version correspondence
// map of internal/diff relates the keys of unchanged statements between two
// program versions — which is what lets the memoized execution-tree trie
// (internal/memo) recognize a node across an edit. The keys are built on
// the first call, once per graph and safely under concurrent callers; only
// version-chain sessions ask for them. The returned slice is the graph's
// own: callers must treat it as read-only.
func (g *Graph) StableKeys() []string {
	g.keysOnce.Do(func() {
		keys := make([]string, len(g.Nodes))
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
	})
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
	// uses is useList's scratch buffer.
	uses []string
	// pendingEnd records edges that must target the end node (returns and the
	// assert-failure sink) but are created before the end node exists.
	pendingEnd []dangling
}

// Build constructs the CFG for procedure pr.
func Build(pr *ast.Procedure) *Graph {
	g := &Graph{Proc: pr, stmtNode: map[ast.Stmt]*Node{}}
	b := &builder{g: g}
	g.Begin = b.newNode(KindBegin, 0, nil)
	// Build the body; collect dangling exits that flow to end.
	entry, exits := b.buildStmts(pr.Body.Stmts)
	g.End = b.newNode(KindEnd, 0, nil)
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

func (b *builder) newNode(kind NodeKind, line int, stmt ast.Stmt) *Node {
	n := &Node{ID: len(b.g.Nodes), Kind: kind, Line: line, Stmt: stmt}
	b.g.Nodes = append(b.g.Nodes, n)
	if stmt != nil {
		b.g.stmtNode[stmt] = n
	}
	return n
}

// condNode creates the Cond node of an if, while or assert statement.
func (b *builder) condNode(s ast.Stmt, cond ast.Expr) *Node {
	n := b.newNode(KindCond, s.Pos().Line, s)
	n.Cond = cond
	n.Use = b.useList(cond)
	n.Succs = make([]Edge, 0, 2)
	return n
}

// useList returns the variables e reads, sorted and distinct.
func (b *builder) useList(e ast.Expr) []string {
	b.uses = b.uses[:0]
	ast.WalkExpr(e, func(x ast.Expr) {
		if id, ok := x.(*ast.Ident); ok {
			b.uses = append(b.uses, id.Name)
		}
	})
	slices.Sort(b.uses)
	return slices.Clone(slices.Compact(b.uses))
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
			n := b.newNode(KindWrite, s.Pos().Line, s)
			n.Def = s.Name
			n.Use = b.useList(s.Value)
			attach(n)
			exits = []dangling{{n, EdgeNext}}
		case *ast.Skip:
			n := b.newNode(KindNop, s.Pos().Line, s)
			attach(n)
			exits = []dangling{{n, EdgeNext}}
		case *ast.Return:
			n := b.newNode(KindNop, s.Pos().Line, s)
			attach(n)
			b.pendingEnd = append(b.pendingEnd, dangling{n, EdgeNext})
			// No fall-through: statements after return are unreachable and,
			// to keep the single-entry/single-exit invariant simple, we stop
			// wiring the remainder of this block.
			return entry, nil
		case *ast.Assert:
			n := b.condNode(s, s.Cond)
			attach(n)
			if b.g.Error == nil {
				b.g.Error = b.newNode(KindError, 0, nil)
				b.pendingEnd = append(b.pendingEnd, dangling{b.g.Error, EdgeNext})
			}
			b.edge(n, b.g.Error, EdgeFalse)
			exits = []dangling{{n, EdgeTrue}}
		case *ast.If:
			n := b.condNode(s, s.Cond)
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
			n := b.condNode(s, s.Cond)
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
