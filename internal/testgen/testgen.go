// Package testgen implements the regression-testing application of DiSE
// described in §5.2 of the paper: rendering each path's witness — the model
// that symbolic execution found for its path condition while exploring —
// into a concrete test input, and selecting/augmenting a test suite by
// comparing the test cases generated for the original version against those
// generated by DiSE for the modified version. No path condition is solved
// twice: the exploration's witness is the solution.
//
// Following the paper, a test case is a rendered call to the method under
// analysis whose argument values come from a solution of the path condition
// — "input values only for the method arguments, i.e., a partial state" — so
// multiple path conditions may map to a single test case when globals/fields
// are symbolic; test cases are deduplicated by their rendered string, and
// selection/augmentation is a plain string comparison, exactly as in the
// paper's "trivial in its approach" implementation.
package testgen

import (
	"sort"
	"strconv"

	"dise/internal/lang/ast"
	"dise/internal/solver"
	"dise/internal/symexec"
)

// TestCase is a concrete invocation of the procedure under analysis,
// rendered as a call string (paper §5.2).
type TestCase struct {
	// Call is the canonical rendering, e.g. "update(0, 1, 3)". Test cases
	// compare equal iff their Call strings are equal.
	Call string `json:"call"`
	// PathCondition is the path condition this test was generated from
	// (the first one, when several map to the same inputs).
	PathCondition string `json:"path_condition"`
}

// Generator turns explored paths into test cases.
type Generator struct {
	Proc *ast.Procedure
}

// NewGenerator builds a Generator for the procedure executed by engine.
func NewGenerator(engine *symexec.Engine) *Generator {
	return &Generator{Proc: engine.Proc}
}

// Generate renders the witness of every path in the summary and returns the
// deduplicated test cases in first-generation order. A path without a
// witness (one no engine collected) yields no test.
func (g *Generator) Generate(summary *symexec.Summary) []TestCase {
	out := make([]TestCase, 0, len(summary.Paths))
	seen := make(map[string]bool, len(summary.Paths))
	symbols := make([]string, len(g.Proc.Params))
	for i, p := range g.Proc.Params {
		symbols[i] = symexec.SymbolName(p.Name)
	}
	// pos[i] is parameter i's position in index, the input index of the
	// witness rendered last (-1 outside it). The paths of one engine share
	// its backend's index, so the lookups run once per index, not per path.
	var index *solver.Index
	pos := make([]int, len(symbols))
	resolved := false
	var call []byte
	for _, p := range summary.Paths {
		w := p.Witness
		if w == nil {
			continue
		}
		if !resolved || w.Index() != index {
			index, resolved = w.Index(), true
			for i, name := range symbols {
				if at, ok := index.Pos(name); ok {
					pos[i] = at
				} else {
					pos[i] = -1
				}
			}
		}
		call = g.appendCall(call[:0], w, symbols, pos)
		if seen[string(call)] {
			continue
		}
		tc := TestCase{Call: string(call), PathCondition: p.PCString}
		seen[tc.Call] = true
		out = append(out, tc)
	}
	return out
}

// appendCall appends the call rendering of a witness to dst, following the
// paper's partial state convention: only procedure arguments appear.
// symbols[i] is the symbol of parameter i and pos[i] its position in the
// witness's index (-1 outside it); an unbound parameter renders as 0.
func (g *Generator) appendCall(dst []byte, w *solver.Model, symbols []string, pos []int) []byte {
	dst = append(dst, g.Proc.Name...)
	dst = append(dst, '(')
	for i, p := range g.Proc.Params {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		var v int64
		if pos[i] >= 0 {
			v = w.At(pos[i])
		} else {
			v, _ = w.Value(symbols[i])
		}
		switch {
		case p.Type != ast.TypeBool:
			dst = strconv.AppendInt(dst, v, 10)
		case v != 0:
			dst = append(dst, "true"...)
		default:
			dst = append(dst, "false"...)
		}
	}
	return append(dst, ')')
}

// Selection is the outcome of test case selection and augmentation.
type Selection struct {
	// Selected are DiSE-generated tests that already exist in the base
	// suite (re-usable regression tests).
	Selected []TestCase
	// Added are DiSE-generated tests absent from the base suite (the
	// augmentation set).
	Added []TestCase
}

// Total returns len(Selected) + len(Added), the paper's "Total Tests".
func (s Selection) Total() int { return len(s.Selected) + len(s.Added) }

// SelectAugment splits the DiSE-generated tests into selected and added
// relative to an existing suite, by exact string comparison of the rendered
// calls (§5.2).
func SelectAugment(baseSuite, diseTests []TestCase) Selection {
	base := map[string]bool{}
	for _, tc := range baseSuite {
		base[tc.Call] = true
	}
	var sel Selection
	for _, tc := range diseTests {
		if base[tc.Call] {
			sel.Selected = append(sel.Selected, tc)
		} else {
			sel.Added = append(sel.Added, tc)
		}
	}
	return sel
}

// Calls returns the sorted call strings of a test list (for reporting).
func Calls(tests []TestCase) []string {
	out := make([]string, len(tests))
	for i, tc := range tests {
		out[i] = tc.Call
	}
	sort.Strings(out)
	return out
}
