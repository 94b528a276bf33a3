// Package interruptloop enforces the cancellation contract of PR 1: every
// loop in the engine-side packages (internal/symexec, internal/solver,
// internal/dise, internal/constraint) that can iterate unboundedly must
// observe the interrupt/budget machinery, so a context cancellation or an
// exhausted budget stops the run within one iteration.
//
// "Can iterate unboundedly" is approximated conservatively: a `for` loop
// with no post statement — `for {}` or `for cond {}` — is the worklist /
// wait-loop shape whose trip count the analyzer cannot bound. Such a loop
// must mention one of the cancellation hooks (an identifier containing
// interrupt, budget, stop, cancel, done, ctx or deadline) in its condition
// or body. Loops with a post statement and range loops are assumed bounded.
// A loop that is provably bounded for another reason (binary search, stack
// pops, LRU trim) carries a //diselint:ignore interruptloop comment stating
// the bound.
package interruptloop

import (
	"go/ast"
	"strings"

	"dise/internal/analysis"
)

// Analyzer is the interruptloop rule.
var Analyzer = &analysis.Analyzer{
	Name: "interruptloop",
	Doc:  "potentially unbounded loops in engine packages must check the interrupt/budget hook",
	Run:  run,
}

// enginePkgs are the packages whose loops sit under the cancellation
// contract.
var enginePkgs = []string{
	"symexec", "solver", "dise", "constraint",
	"constraint/smtlib", "constraint/chaos",
}

// hookWords are identifier fragments that witness a cancellation check.
var hookWords = []string{"interrupt", "budget", "stop", "cancel", "done", "ctx", "deadline"}

func run(pass *analysis.Pass) error {
	covered := false
	for _, base := range enginePkgs {
		if analysis.MatchPkg(pass.Pkg.Path(), base) {
			covered = true
			break
		}
	}
	if !covered {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if loop.Post != nil {
				return true // counted loop: assumed bounded
			}
			if loop.Cond != nil && mentionsHook(loop.Cond) {
				return true
			}
			if mentionsHook(loop.Body) {
				return true
			}
			pass.Reportf(loop.Pos(), "potentially unbounded loop without an interrupt/budget check: poll the interrupt hook (or document the bound with //diselint:ignore interruptloop <reason>) so cancellation stops the run within one iteration")
			return true
		})
	}
	return nil
}

func mentionsHook(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return !found
		}
		name := strings.ToLower(id.Name)
		for _, w := range hookWords {
			if strings.Contains(name, w) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}
