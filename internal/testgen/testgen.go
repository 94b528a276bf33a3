// Package testgen implements the regression-testing application of DiSE
// described in §5.2 of the paper: solving path conditions to obtain concrete
// test inputs, and selecting/augmenting a test suite by comparing the test
// cases generated for the original version against those generated by DiSE
// for the modified version.
//
// Following the paper, a test case is a rendered call to the method under
// analysis whose argument values come from solving the path condition —
// "input values only for the method arguments, i.e., a partial state" — so
// multiple path conditions may map to a single test case when globals/fields
// are symbolic; test cases are deduplicated by their rendered string, and
// selection/augmentation is a plain string comparison, exactly as in the
// paper's "trivial in its approach" implementation.
package testgen

import (
	"sort"
	"strconv"

	"dise/internal/constraint"
	"dise/internal/lang/ast"
	"dise/internal/sym"
	"dise/internal/symexec"
)

// TestCase is a concrete invocation of the procedure under analysis.
type TestCase struct {
	// Call is the canonical rendering, e.g. "update(0, 1, 3)". Test cases
	// compare equal iff their Call strings are equal.
	Call string
	// Inputs holds the solved values for the procedure parameters.
	Inputs map[string]int64
	// PCString is the path condition this test was generated from (the
	// first one, when several map to the same inputs).
	PCString string
}

// Generator turns path conditions into test cases.
type Generator struct {
	Proc *ast.Procedure
	// Check decides a path condition and produces a model over the input
	// domains. The default (NewGenerator) is the engine's solver context,
	// whose prefix reuse makes solving the closely related path conditions
	// of one run incremental.
	Check func(pc []sym.Expr) constraint.Result
}

// NewGenerator builds a Generator for the procedure executed by engine,
// reusing the engine's solver context and input domains.
func NewGenerator(engine *symexec.Engine) *Generator {
	return &Generator{
		Proc:  engine.Proc,
		Check: engine.CheckPC,
	}
}

// Generate solves every path condition in the summary and returns the
// deduplicated test cases in first-generation order.
func (g *Generator) Generate(summary *symexec.Summary) []TestCase {
	var out []TestCase
	seen := map[string]bool{}
	symbols := make([]string, len(g.Proc.Params))
	for i, p := range g.Proc.Params {
		symbols[i] = symexec.SymbolName(p.Name)
	}
	var call []byte
	for _, p := range summary.Paths {
		res := g.Check(p.PC)
		if !res.Sat {
			// Path conditions come from feasible exploration; Unknown here
			// means the solver budget was exhausted re-solving. Skip, as SPF
			// skips unsolvable path conditions during test generation.
			continue
		}
		call = g.appendCall(call[:0], res.Model, symbols)
		if seen[string(call)] {
			continue
		}
		tc := TestCase{Call: string(call), Inputs: g.inputs(res.Model, symbols), PCString: p.PCString}
		seen[tc.Call] = true
		out = append(out, tc)
	}
	return out
}

// appendCall appends the call rendering of a model to dst, following the
// paper's partial state convention: only procedure arguments appear.
// symbols[i] is the symbol of parameter i.
func (g *Generator) appendCall(dst []byte, model map[string]int64, symbols []string) []byte {
	dst = append(dst, g.Proc.Name...)
	dst = append(dst, '(')
	for i, p := range g.Proc.Params {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		v := model[symbols[i]]
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

// inputs returns the model's values of the procedure parameters.
func (g *Generator) inputs(model map[string]int64, symbols []string) map[string]int64 {
	out := make(map[string]int64, len(g.Proc.Params))
	for i, p := range g.Proc.Params {
		out[p.Name] = model[symbols[i]]
	}
	return out
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
