// Package diff implements the lightweight differential analysis DiSE takes
// as input (paper §3.1): a structural AST comparison of two versions of a
// procedure.
//
// The result marks every statement of the base version as unchanged, changed
// or removed, every statement of the modified version as unchanged, changed
// or added, and produces the diffMap relating base statements to their
// corresponding statements in the modified version. A pre-processing step in
// package dise lifts these marks onto CFG nodes.
//
// The algorithm aligns statement lists with a longest-common-subsequence
// over deep statement equality, then pairs the remaining statements of
// equal kind in order, recursing into the branches of paired if/while
// statements. This matches the paper's description of "source line or
// abstract syntax tree diff" precision: it is deliberately syntactic and
// conservative, with no semantic matching.
//
// Deep equality is an integer comparison: every statement and expression of
// both versions is hash-consed, bottom-up and once per Procedures call, to
// an id over its kind, names, operators and children, ignoring positions,
// so that two ids are equal exactly when the two subtrees print the same
// String() text. The LCS runs only on what remains of a statement list
// after trimming the common prefix and a common suffix that cannot change
// the alignment (see diffBlocks), over one flat table.
package diff

import (
	"sort"

	"dise/internal/lang/ast"
	"dise/internal/lang/token"
)

// Mark classifies a statement relative to the other program version.
type Mark int

// Mark values. Base statements are Unchanged/Changed/Removed; modified
// version statements are Unchanged/Changed/Added.
const (
	Unchanged Mark = iota
	Changed
	Added
	Removed
)

// String names the mark.
func (m Mark) String() string {
	switch m {
	case Unchanged:
		return "unchanged"
	case Changed:
		return "changed"
	case Added:
		return "added"
	case Removed:
		return "removed"
	}
	return "invalid"
}

// Result is the outcome of diffing two procedure versions.
type Result struct {
	Base, Mod *ast.Procedure
	// BaseMarks marks every statement of the base version.
	BaseMarks map[ast.Stmt]Mark
	// ModMarks marks every statement of the modified version.
	ModMarks map[ast.Stmt]Mark
	// Pairs is the diffMap: base statement → corresponding mod statement,
	// defined for unchanged and changed statements only (removed statements
	// map to nothing, per the paper's "get returns the empty set").
	Pairs map[ast.Stmt]ast.Stmt
}

// Procedures diffs two versions of a procedure.
func Procedures(base, mod *ast.Procedure) *Result {
	in := newInterner()
	in.block(base.Body)
	nb := len(in.stmts)
	in.block(mod.Body)
	nm := len(in.stmts) - nb
	r := &Result{
		Base:      base,
		Mod:       mod,
		BaseMarks: make(map[ast.Stmt]Mark, nb),
		ModMarks:  make(map[ast.Stmt]Mark, nm),
		Pairs:     make(map[ast.Stmt]ast.Stmt, min(nb, nm)),
	}
	d := &differ{Result: r, ids: in}
	d.diffBlocks(base.Body.Stmts, mod.Body.Stmts)
	return r
}

// differ carries one Procedures call: the result under construction and the
// statement ids of both versions.
type differ struct {
	*Result
	ids *interner
}

// interner hash-conses syntax trees: a subtree's id is determined by its
// kind, its names and operators and its children's ids, positions ignored.
// Two subtrees get equal ids exactly when their String() texts are equal:
// the printer writes every kind, name and operator and brackets every
// nested operand, so the text determines the tree, except that "-5" prints
// both the literal -5 and the negation of the literal 5 (the parser folds
// the latter), which expr maps to one id.
type interner struct {
	names map[string]int32 // identifiers, and the keywords true and false
	cells map[cell]int32
	stmts map[ast.Stmt]int32
}

// cell is one hash-consed node: its kind, operator and up to two child
// ids. Lists are cons cells whose tail is -1 when empty; an integer
// literal keeps its two 32-bit halves in a and b.
type cell struct {
	kind cellKind
	op   token.Kind
	a, b int32
}

type cellKind uint8

const (
	cellInt cellKind = iota
	cellUnary
	cellBinary
	cellAssign
	cellIf
	cellBranches // an if's then block and else block (-1 when absent)
	cellWhile
	cellAssert
	cellSkip
	cellReturn
	cellCall
	cellArgs // cons cell of a call's argument list
	cellBlock
	cellStmts // cons cell of a block's statement list
)

func newInterner() *interner {
	return &interner{names: map[string]int32{}, cells: map[cell]int32{}, stmts: map[ast.Stmt]int32{}}
}

// name returns the id of a name; names and cells share one id space.
func (in *interner) name(s string) int32 {
	id, ok := in.names[s]
	if !ok {
		id = int32(len(in.names) + len(in.cells))
		in.names[s] = id
	}
	return id
}

func (in *interner) cell(c cell) int32 {
	id, ok := in.cells[c]
	if !ok {
		id = int32(len(in.names) + len(in.cells))
		in.cells[c] = id
	}
	return id
}

func (in *interner) int(v int64) int32 {
	return in.cell(cell{kind: cellInt, a: int32(v), b: int32(v >> 32)})
}

// expr returns the id of an expression.
func (in *interner) expr(e ast.Expr) int32 {
	switch e := e.(type) {
	case *ast.IntLit:
		return in.int(e.Value)
	case *ast.BoolLit:
		return in.name(e.String())
	case *ast.Ident:
		return in.name(e.Name)
	case *ast.Unary:
		if lit, ok := e.X.(*ast.IntLit); ok && e.Op == token.MINUS && lit.Value > 0 {
			return in.int(-lit.Value) // prints as the literal -v
		}
		return in.cell(cell{kind: cellUnary, op: e.Op, a: in.expr(e.X)})
	case *ast.Binary:
		return in.cell(cell{kind: cellBinary, op: e.Op, a: in.expr(e.L), b: in.expr(e.R)})
	}
	panic("diff: unknown expression")
}

// block returns the id of a block, recording the id of every statement in
// it.
func (in *interner) block(b *ast.Block) int32 {
	list := int32(-1)
	for i := len(b.Stmts) - 1; i >= 0; i-- {
		list = in.cell(cell{kind: cellStmts, a: in.stmt(b.Stmts[i]), b: list})
	}
	return in.cell(cell{kind: cellBlock, a: list})
}

// stmt returns the id of a statement and records it in in.stmts.
func (in *interner) stmt(s ast.Stmt) int32 {
	var id int32
	switch s := s.(type) {
	case *ast.Assign:
		id = in.cell(cell{kind: cellAssign, a: in.name(s.Name), b: in.expr(s.Value)})
	case *ast.If:
		els := int32(-1)
		if s.Else != nil {
			els = in.block(s.Else)
		}
		branches := in.cell(cell{kind: cellBranches, a: in.block(s.Then), b: els})
		id = in.cell(cell{kind: cellIf, a: in.expr(s.Cond), b: branches})
	case *ast.While:
		id = in.cell(cell{kind: cellWhile, a: in.expr(s.Cond), b: in.block(s.Body)})
	case *ast.Assert:
		id = in.cell(cell{kind: cellAssert, a: in.expr(s.Cond)})
	case *ast.Skip:
		id = in.cell(cell{kind: cellSkip})
	case *ast.Return:
		id = in.cell(cell{kind: cellReturn})
	case *ast.Call:
		args := int32(-1)
		for i := len(s.Args) - 1; i >= 0; i-- {
			args = in.cell(cell{kind: cellArgs, a: in.expr(s.Args[i]), b: args})
		}
		id = in.cell(cell{kind: cellCall, a: in.name(s.Callee), b: args})
	case *ast.Block:
		id = in.block(s)
	default:
		panic("diff: unknown statement")
	}
	in.stmts[s] = id
	return id
}

// markSubtree marks s and all nested statements with m in the given map.
func markSubtree(marks map[ast.Stmt]Mark, s ast.Stmt, m Mark) {
	ast.Walk([]ast.Stmt{s}, func(st ast.Stmt) { marks[st] = m })
}

// pairSubtrees records pair mappings for two structurally identical
// subtrees and marks them unchanged.
func (r *Result) pairSubtrees(b, m ast.Stmt) {
	r.BaseMarks[b] = Unchanged
	r.ModMarks[m] = Unchanged
	r.Pairs[b] = m
	switch b := b.(type) {
	case *ast.If:
		mi := m.(*ast.If)
		r.pairBlocks(b.Then.Stmts, mi.Then.Stmts)
		if b.Else != nil && mi.Else != nil {
			r.pairBlocks(b.Else.Stmts, mi.Else.Stmts)
		}
	case *ast.While:
		mw := m.(*ast.While)
		r.pairBlocks(b.Body.Stmts, mw.Body.Stmts)
	case *ast.Block:
		mb := m.(*ast.Block)
		r.pairBlocks(b.Stmts, mb.Stmts)
	}
}

func (r *Result) pairBlocks(bs, ms []ast.Stmt) {
	for i := range bs {
		r.pairSubtrees(bs[i], ms[i])
	}
}

// same reports whether two statements are deeply equal.
func (d *differ) same(b, m ast.Stmt) bool { return d.ids.stmts[b] == d.ids.stmts[m] }

// diffBlocks aligns two statement lists: the anchors of a longest common
// subsequence of deeply equal statements pair as unchanged subtrees, and
// the gaps between them go to diffGap.
//
// The LCS is the traceback of the classic table, which takes a match
// whenever the two current statements are equal and otherwise, on a tie,
// skips the base statement. Two trims leave its anchors unchanged. The
// common prefix is what the traceback takes first. A common suffix S can
// be cut off when its first statement occurs nowhere in the two lists that
// remain, A and B: every table entry inside A×B exceeds the trimmed table's
// by |S|, since LCS(X+S, Y+S) = LCS(X, Y) + |S|, so the traceback makes the
// same choices there; and once it leaves A×B on one side, S[0] matches
// nothing left on the other side, whose statements it then skips up to S.
// Without that condition, base "x = 1; y = 2;" against mod "y = 2; y = 2;"
// would pair "y = 2;" with the second mod statement instead of the first.
func (d *differ) diffBlocks(bs, ms []ast.Stmt) {
	p := 0
	for p < len(bs) && p < len(ms) && d.same(bs[p], ms[p]) {
		d.pairSubtrees(bs[p], ms[p])
		p++
	}
	bs, ms = bs[p:], ms[p:]
	s := 0
	for s < len(bs) && s < len(ms) && d.same(bs[len(bs)-1-s], ms[len(ms)-1-s]) {
		s++
	}
	for ; s > 0; s-- {
		first := d.ids.stmts[bs[len(bs)-s]]
		if !d.occurs(first, bs[:len(bs)-s]) && !d.occurs(first, ms[:len(ms)-s]) {
			break
		}
	}
	for k := 1; k <= s; k++ {
		d.pairSubtrees(bs[len(bs)-k], ms[len(ms)-k])
	}
	bs, ms = bs[:len(bs)-s], ms[:len(ms)-s]
	prevB, prevM := 0, 0
	for _, a := range d.lcs(bs, ms) {
		d.diffGap(bs[prevB:a.bi], ms[prevM:a.mi])
		d.pairSubtrees(bs[a.bi], ms[a.mi])
		prevB, prevM = a.bi+1, a.mi+1
	}
	d.diffGap(bs[prevB:], ms[prevM:])
}

// occurs reports whether a statement with the given id is in list.
func (d *differ) occurs(id int32, list []ast.Stmt) bool {
	for _, s := range list {
		if d.ids.stmts[s] == id {
			return true
		}
	}
	return false
}

// diffGap pairs non-identical statements between anchors: same-kind
// statements pair up in order as changed (recursing into compound bodies);
// everything left is removed/added.
func (d *differ) diffGap(bs, ms []ast.Stmt) {
	// last[k] is the index of the last mod statement of kind k, -1 if none.
	var last [numKinds]int
	for k := range last {
		last[k] = -1
	}
	for i, m := range ms {
		last[kindOf(m)] = i
	}
	bi, mi := 0, 0
	for bi < len(bs) && mi < len(ms) {
		b, m := bs[bi], ms[mi]
		if kindOf(b) == kindOf(m) {
			d.pairChanged(b, m)
			bi++
			mi++
			continue
		}
		// Kinds differ: decide which side to consume. If the base kind still
		// occurs later on the mod side, the mod statement is an insertion;
		// otherwise the base statement was removed.
		if last[kindOf(b)] > mi {
			markSubtree(d.ModMarks, m, Added)
			mi++
		} else {
			markSubtree(d.BaseMarks, b, Removed)
			bi++
		}
	}
	for ; bi < len(bs); bi++ {
		markSubtree(d.BaseMarks, bs[bi], Removed)
	}
	for ; mi < len(ms); mi++ {
		markSubtree(d.ModMarks, ms[mi], Added)
	}
}

// pairChanged pairs two same-kind statements that differ somewhere,
// recursing into compound statements so that only the genuinely changed
// parts are marked.
func (d *differ) pairChanged(b, m ast.Stmt) {
	d.Pairs[b] = m
	switch b := b.(type) {
	case *ast.If:
		mi := m.(*ast.If)
		mark := Unchanged
		if d.ids.expr(b.Cond) != d.ids.expr(mi.Cond) {
			mark = Changed
		}
		d.BaseMarks[b] = mark
		d.ModMarks[mi] = mark
		d.diffBlocks(b.Then.Stmts, mi.Then.Stmts)
		switch {
		case b.Else != nil && mi.Else != nil:
			d.diffBlocks(b.Else.Stmts, mi.Else.Stmts)
		case b.Else != nil:
			for _, s := range b.Else.Stmts {
				markSubtree(d.BaseMarks, s, Removed)
			}
		case mi.Else != nil:
			for _, s := range mi.Else.Stmts {
				markSubtree(d.ModMarks, s, Added)
			}
		}
	case *ast.While:
		mw := m.(*ast.While)
		mark := Unchanged
		if d.ids.expr(b.Cond) != d.ids.expr(mw.Cond) {
			mark = Changed
		}
		d.BaseMarks[b] = mark
		d.ModMarks[mw] = mark
		d.diffBlocks(b.Body.Stmts, mw.Body.Stmts)
	case *ast.Block:
		mb := m.(*ast.Block)
		d.BaseMarks[b] = Unchanged
		d.ModMarks[mb] = Unchanged
		d.diffBlocks(b.Stmts, mb.Stmts)
	default:
		// Leaf statements (assign, assert, skip, return): changed unless
		// identical (identical ones are normally consumed by the LCS, but a
		// gap pairing can still see them, e.g. when surrounded by changes).
		mark := Changed
		if d.same(b, m) {
			mark = Unchanged
		}
		d.BaseMarks[b] = mark
		d.ModMarks[m] = mark
	}
}

// numKinds counts the statement kinds kindOf distinguishes.
const numKinds = 8

// kindOf numbers a statement's kind: statements of equal kind pair up as
// changed in a gap.
func kindOf(s ast.Stmt) int {
	switch s.(type) {
	case *ast.Assign:
		return 0
	case *ast.If:
		return 1
	case *ast.While:
		return 2
	case *ast.Assert:
		return 3
	case *ast.Skip:
		return 4
	case *ast.Return:
		return 5
	case *ast.Call:
		return 6
	case *ast.Block:
		return 7
	}
	panic("diff: unknown statement")
}

// anchor is a pair of deeply equal statements the LCS aligns.
type anchor struct{ bi, mi int }

// lcs computes anchor pairs of deeply-equal statements via classic dynamic
// programming over one flat table of statement ids.
func (d *differ) lcs(bs, ms []ast.Stmt) []anchor {
	n, m := len(bs), len(ms)
	if n == 0 || m == 0 {
		return nil
	}
	bk := make([]int32, n)
	for i, s := range bs {
		bk[i] = d.ids.stmts[s]
	}
	mk := make([]int32, m)
	for j, s := range ms {
		mk[j] = d.ids.stmts[s]
	}
	// dp[i*w+j] is the LCS length of bk[i:] and mk[j:].
	w := m + 1
	dp := make([]int32, (n+1)*w)
	for i := n - 1; i >= 0; i-- {
		row, below := dp[i*w:], dp[(i+1)*w:]
		for j := m - 1; j >= 0; j-- {
			switch {
			case bk[i] == mk[j]:
				row[j] = below[j+1] + 1
			case below[j] >= row[j+1]:
				row[j] = below[j]
			default:
				row[j] = row[j+1]
			}
		}
	}
	var out []anchor
	for i, j := 0, 0; i < n && j < m; {
		switch {
		case bk[i] == mk[j]:
			out = append(out, anchor{i, j})
			i++
			j++
		case dp[(i+1)*w+j] >= dp[i*w+j+1]:
			i++
		default:
			j++
		}
	}
	return out
}

// --- reporting helpers -------------------------------------------------------

// linesWith returns sorted source lines of statements carrying mark m.
func linesWith(marks map[ast.Stmt]Mark, want Mark) []int {
	var out []int
	for s, m := range marks {
		if m == want {
			out = append(out, s.Pos().Line)
		}
	}
	sort.Ints(out)
	return out
}

// ChangedModLines returns the source lines marked changed in the modified
// version, sorted.
func (r *Result) ChangedModLines() []int { return linesWith(r.ModMarks, Changed) }

// AddedLines returns the source lines marked added in the modified version.
func (r *Result) AddedLines() []int { return linesWith(r.ModMarks, Added) }

// RemovedLines returns the base-version source lines marked removed.
func (r *Result) RemovedLines() []int { return linesWith(r.BaseMarks, Removed) }

// Identical reports whether the diff found no changes at all.
func (r *Result) Identical() bool {
	for _, m := range r.BaseMarks {
		if m != Unchanged {
			return false
		}
	}
	for _, m := range r.ModMarks {
		if m != Unchanged {
			return false
		}
	}
	return true
}
