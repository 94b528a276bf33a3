// Package ast defines the abstract syntax tree for the mini-language.
//
// A Program is a list of global variable declarations followed by a list of
// procedures. DiSE's analyses are intra-procedural (per the paper, §3.2), so
// a Procedure is the unit of analysis: the CFG, the diff, the affected sets
// and the symbolic execution all operate on a single procedure at a time.
// Globals act as additional symbolic inputs with known initial values.
package ast

import (
	"strconv"
	"strings"

	"dise/internal/lang/token"
)

// Type is the static type of a variable or expression.
type Type int

// Supported types.
const (
	TypeInvalid Type = iota
	TypeInt
	TypeBool
)

// String renders the type keyword.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeBool:
		return "bool"
	}
	return "invalid"
}

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
	String() string
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	Value  int64
	TokPos token.Pos
}

// BoolLit is a boolean literal.
type BoolLit struct {
	Value  bool
	TokPos token.Pos
}

// Ident is a variable reference.
type Ident struct {
	Name   string
	TokPos token.Pos
}

// Unary is !e or -e.
type Unary struct {
	Op     token.Kind // NOT or MINUS
	X      Expr
	TokPos token.Pos
}

// Binary is a binary operation: arithmetic, comparison, or logical.
type Binary struct {
	Op   token.Kind
	L, R Expr
}

func (e *IntLit) Pos() token.Pos  { return e.TokPos }
func (e *BoolLit) Pos() token.Pos { return e.TokPos }
func (e *Ident) Pos() token.Pos   { return e.TokPos }
func (e *Unary) Pos() token.Pos   { return e.TokPos }
func (e *Binary) Pos() token.Pos  { return e.L.Pos() }

func (e *IntLit) String() string  { return strconv.FormatInt(e.Value, 10) }
func (e *BoolLit) String() string { return strconv.FormatBool(e.Value) }
func (e *Ident) String() string   { return e.Name }
func (e *Unary) String() string   { return exprString(e) }
func (e *Binary) String() string  { return exprString(e) }

// exprString renders a composite expression through one builder, so the
// cost is linear in the expression's size however deeply it nests.
func exprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *Unary:
		b.WriteString(e.Op.String())
		writeOperand(b, e.X)
	case *Binary:
		writeOperand(b, e.L)
		b.WriteByte(' ')
		b.WriteString(e.Op.String())
		b.WriteByte(' ')
		writeOperand(b, e.R)
	default:
		b.WriteString(e.String())
	}
}

// writeOperand wraps a binary operand in parentheses, so the printed form is
// unambiguous without reproducing the original precedence decisions.
func writeOperand(b *strings.Builder, e Expr) {
	if _, ok := e.(*Binary); !ok {
		writeExpr(b, e)
		return
	}
	b.WriteByte('(')
	writeExpr(b, e)
	b.WriteByte(')')
}

func (*IntLit) exprNode()  {}
func (*BoolLit) exprNode() {}
func (*Ident) exprNode()   {}
func (*Unary) exprNode()   {}
func (*Binary) exprNode()  {}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Assign is "x = e;".
type Assign struct {
	Name   string
	Value  Expr
	TokPos token.Pos
}

// If is "if (cond) { then } else { else }"; Else may be nil.
type If struct {
	Cond   Expr
	Then   *Block
	Else   *Block // nil when absent
	TokPos token.Pos
}

// While is "while (cond) { body }".
type While struct {
	Cond   Expr
	Body   *Block
	TokPos token.Pos
}

// Assert is "assert e;". Per §5.1 of the paper, asserts are de-sugared into
// a conditional plus an error sink during CFG construction, so DiSE treats
// assertion violations as reachable error locations.
type Assert struct {
	Cond   Expr
	TokPos token.Pos
}

// Skip is "skip;" — a no-op statement, useful in diff tests.
type Skip struct {
	TokPos token.Pos
}

// Return is "return;" — exits the procedure.
type Return struct {
	TokPos token.Pos
}

// Call is "callee(arg1, arg2);" — a procedure call statement. Procedures
// communicate through globals (Java-void style), so calls have no return
// value. Calls are an extension over the paper's intra-procedural setting:
// the inline package expands them so DiSE analyzes whole systems (the
// paper's §7 future work).
type Call struct {
	Callee string
	Args   []Expr
	TokPos token.Pos
}

// Block is "{ s1 s2 ... }".
type Block struct {
	Stmts  []Stmt
	TokPos token.Pos
}

func (s *Assign) Pos() token.Pos { return s.TokPos }
func (s *If) Pos() token.Pos     { return s.TokPos }
func (s *While) Pos() token.Pos  { return s.TokPos }
func (s *Assert) Pos() token.Pos { return s.TokPos }
func (s *Skip) Pos() token.Pos   { return s.TokPos }
func (s *Return) Pos() token.Pos { return s.TokPos }
func (s *Call) Pos() token.Pos   { return s.TokPos }
func (s *Block) Pos() token.Pos  { return s.TokPos }

func (s *Assign) String() string { return s.Name + " = " + s.Value.String() + ";" }
func (s *If) String() string {
	out := "if (" + s.Cond.String() + ") " + s.Then.String()
	if s.Else != nil {
		out += " else " + s.Else.String()
	}
	return out
}
func (s *While) String() string  { return "while (" + s.Cond.String() + ") " + s.Body.String() }
func (s *Assert) String() string { return "assert " + s.Cond.String() + ";" }
func (s *Skip) String() string   { return "skip;" }
func (s *Return) String() string { return "return;" }
func (s *Call) String() string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.String()
	}
	return s.Callee + "(" + strings.Join(args, ", ") + ");"
}
func (s *Block) String() string {
	var b strings.Builder
	b.WriteString("{ ")
	for _, st := range s.Stmts {
		b.WriteString(st.String())
		b.WriteString(" ")
	}
	b.WriteString("}")
	return b.String()
}

func (*Assign) stmtNode() {}
func (*If) stmtNode()     {}
func (*While) stmtNode()  {}
func (*Assert) stmtNode() {}
func (*Skip) stmtNode()   {}
func (*Return) stmtNode() {}
func (*Call) stmtNode()   {}
func (*Block) stmtNode()  {}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

// Param is a procedure parameter. Parameters are the symbolic inputs of the
// procedure during symbolic execution.
type Param struct {
	Name   string
	Type   Type
	TokPos token.Pos
}

// String renders "int x".
func (p Param) String() string { return p.Type.String() + " " + p.Name }

// Global is a global variable declaration with a constant initializer.
type Global struct {
	Name   string
	Type   Type
	Init   Expr // IntLit or BoolLit
	TokPos token.Pos
}

func (g *Global) Pos() token.Pos { return g.TokPos }
func (g *Global) String() string {
	return g.Type.String() + " " + g.Name + " = " + g.Init.String() + ";"
}

// Procedure is the unit of analysis.
type Procedure struct {
	Name   string
	Params []Param
	Body   *Block
	TokPos token.Pos
}

func (p *Procedure) Pos() token.Pos { return p.TokPos }
func (p *Procedure) String() string {
	var params []string
	for _, pr := range p.Params {
		params = append(params, pr.String())
	}
	return "proc " + p.Name + "(" + strings.Join(params, ", ") + ") " + p.Body.String()
}

// Program is a parsed compilation unit.
type Program struct {
	Globals []*Global
	Procs   []*Procedure
}

// Proc returns the procedure with the given name, or nil.
func (p *Program) Proc(name string) *Procedure {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// String renders the whole program (single-line statements).
func (p *Program) String() string {
	var b strings.Builder
	for _, g := range p.Globals {
		b.WriteString(g.String())
		b.WriteString("\n")
	}
	for _, pr := range p.Procs {
		b.WriteString(pr.String())
		b.WriteString("\n")
	}
	return b.String()
}
