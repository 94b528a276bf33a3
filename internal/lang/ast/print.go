package ast

import (
	"fmt"
	"strings"
)

// Pretty renders the program with indentation, one statement per line. The
// output is valid input to the parser, which makes it convenient for golden
// tests and for emitting mutated program versions.
func Pretty(p *Program) string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "%s\n", g.String())
	}
	for i, pr := range p.Procs {
		if i > 0 || len(p.Globals) > 0 {
			b.WriteString("\n")
		}
		prettyProc(&b, pr)
	}
	return b.String()
}

func prettyProc(b *strings.Builder, pr *Procedure) {
	var params []string
	for _, p := range pr.Params {
		params = append(params, p.String())
	}
	fmt.Fprintf(b, "proc %s(%s) {\n", pr.Name, strings.Join(params, ", "))
	prettyStmts(b, pr.Body.Stmts, 1)
	b.WriteString("}\n")
}

func prettyStmts(b *strings.Builder, stmts []Stmt, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *If:
			fmt.Fprintf(b, "%sif (%s) {\n", indent, s.Cond.String())
			prettyStmts(b, s.Then.Stmts, depth+1)
			if s.Else != nil {
				fmt.Fprintf(b, "%s} else {\n", indent)
				prettyStmts(b, s.Else.Stmts, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", indent)
		case *While:
			fmt.Fprintf(b, "%swhile (%s) {\n", indent, s.Cond.String())
			prettyStmts(b, s.Body.Stmts, depth+1)
			fmt.Fprintf(b, "%s}\n", indent)
		case *Block:
			fmt.Fprintf(b, "%s{\n", indent)
			prettyStmts(b, s.Stmts, depth+1)
			fmt.Fprintf(b, "%s}\n", indent)
		default:
			fmt.Fprintf(b, "%s%s\n", indent, s.String())
		}
	}
}

// Walk calls fn for every statement in the block tree, pre-order. It is the
// statement-level traversal shared by the diff and mutation machinery.
func Walk(stmts []Stmt, fn func(Stmt)) {
	for _, s := range stmts {
		fn(s)
		switch s := s.(type) {
		case *If:
			Walk(s.Then.Stmts, fn)
			if s.Else != nil {
				Walk(s.Else.Stmts, fn)
			}
		case *While:
			Walk(s.Body.Stmts, fn)
		case *Block:
			Walk(s.Stmts, fn)
		}
	}
}

// WalkExpr calls fn for every sub-expression of e, pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *Unary:
		WalkExpr(e.X, fn)
	case *Binary:
		WalkExpr(e.L, fn)
		WalkExpr(e.R, fn)
	}
}

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case *IntLit:
		c := *e
		return &c
	case *BoolLit:
		c := *e
		return &c
	case *Ident:
		c := *e
		return &c
	case *Unary:
		return &Unary{Op: e.Op, X: CloneExpr(e.X), TokPos: e.TokPos}
	case *Binary:
		return &Binary{Op: e.Op, L: CloneExpr(e.L), R: CloneExpr(e.R)}
	case nil:
		return nil
	}
	panic(fmt.Sprintf("ast.CloneExpr: unknown expression %T", e))
}

// CloneStmt returns a deep copy of s.
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Assign:
		return &Assign{Name: s.Name, Value: CloneExpr(s.Value), TokPos: s.TokPos}
	case *If:
		c := &If{Cond: CloneExpr(s.Cond), Then: CloneBlock(s.Then), TokPos: s.TokPos}
		if s.Else != nil {
			c.Else = CloneBlock(s.Else)
		}
		return c
	case *While:
		return &While{Cond: CloneExpr(s.Cond), Body: CloneBlock(s.Body), TokPos: s.TokPos}
	case *Assert:
		return &Assert{Cond: CloneExpr(s.Cond), TokPos: s.TokPos}
	case *Skip:
		c := *s
		return &c
	case *Return:
		c := *s
		return &c
	case *Call:
		c := &Call{Callee: s.Callee, TokPos: s.TokPos}
		for _, a := range s.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *Block:
		return CloneBlock(s)
	}
	panic(fmt.Sprintf("ast.CloneStmt: unknown statement %T", s))
}

// CloneBlock returns a deep copy of b.
func CloneBlock(b *Block) *Block {
	out := &Block{TokPos: b.TokPos}
	for _, s := range b.Stmts {
		out.Stmts = append(out.Stmts, CloneStmt(s))
	}
	return out
}

// CloneProcedure returns a deep copy of pr.
func CloneProcedure(pr *Procedure) *Procedure {
	out := &Procedure{Name: pr.Name, TokPos: pr.TokPos, Body: CloneBlock(pr.Body)}
	out.Params = append(out.Params, pr.Params...)
	return out
}

// CloneProgram returns a deep copy of p.
func CloneProgram(p *Program) *Program {
	out := &Program{}
	for _, g := range p.Globals {
		c := &Global{Name: g.Name, Type: g.Type, Init: CloneExpr(g.Init), TokPos: g.TokPos}
		out.Globals = append(out.Globals, c)
	}
	for _, pr := range p.Procs {
		out.Procs = append(out.Procs, CloneProcedure(pr))
	}
	return out
}
