// Package parser implements a recursive-descent parser for the
// mini-language.
//
// Grammar (EBNF):
//
//	program   = { global } { procedure } .
//	global    = type ident "=" expr ";" .
//	procedure = "proc" ident "(" [ param { "," param } ] ")" block .
//	param     = type ident .
//	type      = "int" | "bool" .
//	block     = "{" { stmt } "}" .
//	stmt      = assign | call | if | while | assert | "skip" ";" | "return" ";" | block .
//	assign    = ident "=" expr ";" .
//	call      = ident "(" [ expr { "," expr } ] ")" ";" .
//	if        = "if" "(" expr ")" block [ "else" ( block | if ) ] .
//	while     = "while" "(" expr ")" block .
//	assert    = "assert" expr ";" .
//	expr      = or .
//	or        = and { "||" and } .
//	and       = not { "&&" not } .
//	not       = "!" not | cmp .
//	cmp       = sum [ ("=="|"!="|"<"|"<="|">"|">=") sum ] .
//	sum       = term { ("+"|"-") term } .
//	term      = unary { ("*"|"/"|"%") unary } .
//	unary     = "-" unary | atom .
//	atom      = INT | "true" | "false" | ident | "(" expr ")" .
//
// "else if" chains are parsed as nested If statements with single-statement
// else blocks, matching the structure of the paper's Fig. 2 example.
//
// Nesting is bounded (maxNesting): each parenthesised expression, "!",
// unary "-", block and if enters one level, and a source nested deeper is
// rejected with one error instead of exhausting the goroutine stack.
package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dise/internal/lang/ast"
	"dise/internal/lang/lexer"
	"dise/internal/lang/token"
)

// maxNesting bounds the parser's recursion depth, counted in nesting
// levels (see enter).
const maxNesting = 10000

// Parser holds parse state over a token stream it pulls from its lexer one
// token at a time: the grammar is LL(1).
type Parser struct {
	lex  *lexer.Lexer
	tok  token.Token // the current token
	errs []error
	// recovered is set right after panic-mode recovery so that the next
	// failing expect() is suppressed instead of producing a cascade.
	recovered bool
	// depth is the current nesting level; tooDeep is set once it passed
	// maxNesting, after which nothing further is parsed or reported.
	depth   int
	tooDeep bool
}

// Parse parses a complete program from source text.
func Parse(src string) (*ast.Program, error) {
	p := &Parser{lex: lexer.New(src)}
	p.tok = p.lex.Next()
	prog := p.parseProgram()
	// Scan what the parse left unread, so that every scan error is reported,
	// ahead of the parse errors.
	p.skipToEOF()
	errs := append(p.lex.Errors(), p.errs...)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return prog, errors.New(strings.Join(msgs, "\n"))
	}
	return prog, nil
}

// MustParse parses src and panics on error. It is intended for artifact
// sources embedded as Go constants, where a parse failure is a programming
// error in this repository rather than user input.
func MustParse(src string) *ast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("parser.MustParse: %v", err))
	}
	return prog
}

// ParseProcedure parses a source file and returns the single procedure named
// name (or the only procedure if name is empty).
func ParseProcedure(src, name string) (*ast.Program, *ast.Procedure, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if name == "" {
		if len(prog.Procs) != 1 {
			return nil, nil, fmt.Errorf("expected exactly one procedure, found %d", len(prog.Procs))
		}
		return prog, prog.Procs[0], nil
	}
	pr := prog.Proc(name)
	if pr == nil {
		return nil, nil, fmt.Errorf("procedure %q not found", name)
	}
	return prog, pr, nil
}

func (p *Parser) cur() token.Token { return p.tok }
func (p *Parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok = p.lex.Next()
	}
	return t
}

// skipToEOF consumes the rest of the input.
func (p *Parser) skipToEOF() {
	for p.tok.Kind != token.EOF {
		p.tok = p.lex.Next()
	}
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		p.recovered = false
		return p.next()
	}
	if p.recovered {
		// We just resynchronized after an error; the structural token the
		// caller wanted was likely swallowed during recovery. Pretend it was
		// present rather than reporting a follow-on error.
		p.recovered = false
		return token.Token{Kind: k, Pos: p.cur().Pos}
	}
	p.errorf("expected %q, found %s", k.String(), p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	if p.tooDeep {
		return
	}
	p.errs = append(p.errs, fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...)))
	// Recover: skip ahead to a statement boundary so a single typo does not
	// produce a cascade of errors.
	for !p.at(token.EOF) && !p.at(token.SEMICOLON) && !p.at(token.RBRACE) {
		p.next()
	}
	p.accept(token.SEMICOLON)
	p.recovered = true
}

// enter descends one nesting level: a parenthesised expression, a "!" or
// unary "-", a block or an if. Past maxNesting it records one error and
// skips to the end of input, and the caller must not descend. Every enter is
// paired with a leave.
func (p *Parser) enter() bool {
	p.depth++
	if p.depth <= maxNesting {
		return true
	}
	if !p.tooDeep {
		p.errs = append(p.errs, fmt.Errorf("%s: nesting deeper than %d levels", p.cur().Pos, maxNesting))
		p.tooDeep = true
		p.skipToEOF()
	}
	return false
}

func (p *Parser) leave() { p.depth-- }

func (p *Parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for p.at(token.KWINT) || p.at(token.KWBOOL) {
		prog.Globals = append(prog.Globals, p.parseGlobal())
	}
	for p.at(token.KWPROC) {
		prog.Procs = append(prog.Procs, p.parseProcedure())
	}
	if !p.at(token.EOF) {
		p.errorf("unexpected token %s at top level", p.cur())
	}
	return prog
}

func (p *Parser) parseType() ast.Type {
	switch {
	case p.accept(token.KWINT):
		return ast.TypeInt
	case p.accept(token.KWBOOL):
		return ast.TypeBool
	}
	p.errorf("expected type, found %s", p.cur())
	return ast.TypeInvalid
}

func (p *Parser) parseGlobal() *ast.Global {
	pos := p.cur().Pos
	typ := p.parseType()
	name := p.expect(token.IDENT)
	p.expect(token.ASSIGN)
	init := p.parseExpr()
	p.expect(token.SEMICOLON)
	return &ast.Global{Name: name.Lit, Type: typ, Init: init, TokPos: pos}
}

func (p *Parser) parseProcedure() *ast.Procedure {
	pos := p.expect(token.KWPROC).Pos
	name := p.expect(token.IDENT)
	p.expect(token.LPAREN)
	var params []ast.Param
	if !p.at(token.RPAREN) {
		for {
			ppos := p.cur().Pos
			typ := p.parseType()
			pname := p.expect(token.IDENT)
			params = append(params, ast.Param{Name: pname.Lit, Type: typ, TokPos: ppos})
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.Procedure{Name: name.Lit, Params: params, Body: body, TokPos: pos}
}

func (p *Parser) parseBlock() *ast.Block {
	pos := p.expect(token.LBRACE).Pos
	blk := &ast.Block{TokPos: pos}
	defer p.leave()
	if !p.enter() {
		return blk
	}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		blk.Stmts = append(blk.Stmts, p.parseStmt())
	}
	p.expect(token.RBRACE)
	return blk
}

func (p *Parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.KWIF:
		return p.parseIf()
	case token.KWWHILE:
		pos := p.next().Pos
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		body := p.parseBlock()
		return &ast.While{Cond: cond, Body: body, TokPos: pos}
	case token.KWASSERT:
		pos := p.next().Pos
		cond := p.parseExpr()
		p.expect(token.SEMICOLON)
		return &ast.Assert{Cond: cond, TokPos: pos}
	case token.KWSKIP:
		pos := p.next().Pos
		p.expect(token.SEMICOLON)
		return &ast.Skip{TokPos: pos}
	case token.KWRETURN:
		pos := p.next().Pos
		p.expect(token.SEMICOLON)
		return &ast.Return{TokPos: pos}
	case token.LBRACE:
		return p.parseBlock()
	case token.IDENT:
		name := p.next()
		if p.at(token.LPAREN) {
			// Procedure call statement: callee(arg, ...);
			p.next()
			var args []ast.Expr
			if !p.at(token.RPAREN) {
				for {
					args = append(args, p.parseExpr())
					if !p.accept(token.COMMA) {
						break
					}
				}
			}
			p.expect(token.RPAREN)
			p.expect(token.SEMICOLON)
			return &ast.Call{Callee: name.Lit, Args: args, TokPos: name.Pos}
		}
		p.expect(token.ASSIGN)
		val := p.parseExpr()
		p.expect(token.SEMICOLON)
		return &ast.Assign{Name: name.Lit, Value: val, TokPos: name.Pos}
	}
	p.errorf("expected statement, found %s", p.cur())
	return &ast.Skip{TokPos: p.cur().Pos}
}

func (p *Parser) parseIf() ast.Stmt {
	pos := p.expect(token.KWIF).Pos
	defer p.leave()
	if !p.enter() {
		return &ast.Skip{TokPos: pos}
	}
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseBlock()
	stmt := &ast.If{Cond: cond, Then: then, TokPos: pos}
	if p.accept(token.KWELSE) {
		if p.at(token.KWIF) {
			// "else if" chain: wrap the nested if in a synthetic block.
			nested := p.parseIf()
			stmt.Else = &ast.Block{Stmts: []ast.Stmt{nested}, TokPos: nested.Pos()}
		} else {
			stmt.Else = p.parseBlock()
		}
	}
	return stmt
}

// --- expressions, precedence climbing --------------------------------------

func (p *Parser) parseExpr() ast.Expr { return p.parseOr() }

func (p *Parser) parseOr() ast.Expr {
	l := p.parseAnd()
	for p.at(token.LOR) {
		p.next()
		r := p.parseAnd()
		l = &ast.Binary{Op: token.LOR, L: l, R: r}
	}
	return l
}

func (p *Parser) parseAnd() ast.Expr {
	l := p.parseNot()
	for p.at(token.LAND) {
		p.next()
		r := p.parseNot()
		l = &ast.Binary{Op: token.LAND, L: l, R: r}
	}
	return l
}

func (p *Parser) parseNot() ast.Expr {
	if p.at(token.NOT) {
		pos := p.next().Pos
		defer p.leave()
		if !p.enter() {
			return &ast.BoolLit{TokPos: pos}
		}
		x := p.parseNot()
		return &ast.Unary{Op: token.NOT, X: x, TokPos: pos}
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() ast.Expr {
	l := p.parseSum()
	if p.cur().Kind.IsComparison() {
		op := p.next().Kind
		r := p.parseSum()
		return &ast.Binary{Op: op, L: l, R: r}
	}
	return l
}

func (p *Parser) parseSum() ast.Expr {
	l := p.parseTerm()
	for p.at(token.PLUS) || p.at(token.MINUS) {
		op := p.next().Kind
		r := p.parseTerm()
		l = &ast.Binary{Op: op, L: l, R: r}
	}
	return l
}

func (p *Parser) parseTerm() ast.Expr {
	l := p.parseUnary()
	for p.at(token.STAR) || p.at(token.SLASH) || p.at(token.PERCENT) {
		op := p.next().Kind
		r := p.parseUnary()
		l = &ast.Binary{Op: op, L: l, R: r}
	}
	return l
}

func (p *Parser) parseUnary() ast.Expr {
	if p.at(token.MINUS) {
		pos := p.next().Pos
		defer p.leave()
		if !p.enter() {
			return &ast.IntLit{TokPos: pos}
		}
		x := p.parseUnary()
		// Fold "-<literal>" immediately so negative constants stay literals.
		if lit, ok := x.(*ast.IntLit); ok {
			return &ast.IntLit{Value: -lit.Value, TokPos: pos}
		}
		return &ast.Unary{Op: token.MINUS, X: x, TokPos: pos}
	}
	return p.parseAtom()
}

func (p *Parser) parseAtom() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.INT:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf("invalid integer literal %q: %v", t.Lit, err)
		}
		return &ast.IntLit{Value: v, TokPos: t.Pos}
	case token.TRUE:
		p.next()
		return &ast.BoolLit{Value: true, TokPos: t.Pos}
	case token.FALSE:
		p.next()
		return &ast.BoolLit{Value: false, TokPos: t.Pos}
	case token.IDENT:
		p.next()
		return &ast.Ident{Name: t.Lit, TokPos: t.Pos}
	case token.LPAREN:
		p.next()
		defer p.leave()
		if !p.enter() {
			return &ast.IntLit{TokPos: t.Pos}
		}
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	}
	p.errorf("expected expression, found %s", t)
	return &ast.IntLit{Value: 0, TokPos: t.Pos}
}
