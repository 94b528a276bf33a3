// Package maporder enforces the determinism invariant behind every
// byte-identical equivalence gate: output built by iterating a Go map
// must be sorted before it can escape.
//
// Go randomizes map iteration order per run. A `for range` over a map whose
// body appends to a slice declared outside the loop (or concatenates onto
// an outer string) therefore produces a different sequence on every
// execution — unless the function sorts that slice after the loop. All four
// equivalence gates (backend identity, scheduler identity, session-vs-cold,
// hot-path representation change) compare emitted paths and stats
// byte-for-byte, so one unsorted emission shows up as a flaky
// 40-version-gate failure three PRs later.
//
// Order-insensitive map consumption (building another map, counting,
// reducing to a bool or a sum) is deliberately not flagged.
package maporder

import (
	"go/ast"
	"go/types"

	"dise/internal/analysis"
)

// Analyzer is the maporder rule.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "map-range loops that append to an escaping slice must be followed by a sort",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		analysis.WalkWithStack(f, func(n ast.Node, stack []ast.Node) {
			loop, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			t := pass.TypesInfo.Types[loop.X].Type
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return
			}
			fnBody := enclosingFuncBody(stack)
			if fnBody == nil {
				return
			}
			for _, tgt := range emissionTargets(pass, loop) {
				if !sortedAfter(pass, fnBody, loop, tgt) {
					pass.Reportf(loop.Pos(), "map iteration appends to %s in nondeterministic order; sort it after the loop or iterate sorted keys (determinism invariant: all equivalence gates are byte-identical)", types.ExprString(tgt))
				}
			}
		})
	}
	return nil
}

// emissionTargets returns the order-sensitive accumulation targets of the
// loop body: arguments of append calls and targets of string +=, when the
// target is declared outside the loop.
func emissionTargets(pass *analysis.Pass, loop *ast.RangeStmt) []ast.Expr {
	var out []ast.Expr
	seen := map[string]bool{}
	add := func(e ast.Expr) {
		if declaredInside(pass, e, loop) {
			return
		}
		key := types.ExprString(e)
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					add(n.Args[0])
				}
			}
		case *ast.AssignStmt:
			// s += k builds an output string in iteration order.
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 {
				if t := pass.TypesInfo.Types[n.Lhs[0]].Type; t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						add(n.Lhs[0])
					}
				}
			}
		}
		return true
	})
	return out
}

// declaredInside reports whether e's root object is declared within the
// loop (a per-iteration accumulator cannot leak iteration order out).
func declaredInside(pass *analysis.Pass, e ast.Expr, loop *ast.RangeStmt) bool {
	id := rootIdent(e)
	if id == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	return obj != nil && obj.Pos() >= loop.Pos() && obj.Pos() < loop.End()
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether, lexically after the loop inside the same
// function, a sort/slices call mentions the target expression.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, loop *ast.RangeStmt, tgt ast.Expr) bool {
	want := types.ExprString(tgt)
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= loop.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			has := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if me, ok := m.(ast.Expr); ok && types.ExprString(me) == want {
					has = true
				}
				return !has
			})
			if has {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}
