package smtlib

import (
	"fmt"
	"strconv"
	"strings"

	"dise/internal/sym"
)

// The printer renders sym expressions into the SMT-LIB2 fragment the
// external solver sees. The IR is integer-valued with C-like truth (a
// condition holds iff it evaluates to a non-zero integer — see
// sym.Eval), while SMT-LIB is two-sorted, so the printer carries
// the target sort through the recursion: bexpr renders into Bool, iexpr
// into Int, and the two coerce into each other with (distinct _ 0) and
// (ite _ 1 0) at the seams.
//
// Division and modulus follow Go's truncate-toward-zero semantics in the
// IR, not SMT-LIB's Euclidean div/mod; the prelude defines tdiv/tmod
// (preludeDefs) in terms of the Euclidean operators and the printer emits
// those. Only constant non-zero divisors are accepted: a symbolic divisor
// could be zero, where the IR's evaluation errors but SMT-LIB's div is an
// arbitrary total function, so such constraints stay with the in-process
// fallback instead of risking a verdict the engine would disagree with.
//
// Anything outside the supported fragment returns an error; the backend
// marks the frame unsupported and the external layer skips every Check
// whose stack contains it. Unsupported never means unsound.

// preludeDefs are the helper definitions emitted once per solver process,
// before any declaration: truncated division and modulus over the
// Euclidean builtins.
var preludeDefs = []string{
	"(set-option :print-success false)",
	"(set-option :produce-models true)",
	"(define-fun tdiv ((a Int) (b Int)) Int" +
		" (ite (or (>= a 0) (= (mod a b) 0)) (div a b)" +
		" (ite (> b 0) (+ (div a b) 1) (- (div a b) 1))))",
	"(define-fun tmod ((a Int) (b Int)) Int (- a (* b (tdiv a b))))",
}

// renderAssert renders one asserted constraint as a complete
// "(assert ...)" command line, or an error when c falls outside the
// supported fragment (undeclared variable, symbolic divisor, exotic name).
func renderAssert(c sym.Expr, declared map[string]bool) (string, error) {
	var b strings.Builder
	b.WriteString("(assert ")
	if err := bexpr(&b, c, declared); err != nil {
		return "", err
	}
	b.WriteString(")")
	return b.String(), nil
}

// bexpr renders e at sort Bool.
func bexpr(w *strings.Builder, e sym.Expr, declared map[string]bool) error {
	switch e := e.(type) {
	case *sym.BoolConst:
		if e.V {
			w.WriteString("true")
		} else {
			w.WriteString("false")
		}
		return nil
	case *sym.Not:
		w.WriteString("(not ")
		if err := bexpr(w, e.X, declared); err != nil {
			return err
		}
		w.WriteString(")")
		return nil
	case *sym.Bin:
		switch {
		case e.Op == sym.OpAnd || e.Op == sym.OpOr:
			if e.Op == sym.OpAnd {
				w.WriteString("(and ")
			} else {
				w.WriteString("(or ")
			}
			if err := bexpr(w, e.L, declared); err != nil {
				return err
			}
			w.WriteString(" ")
			if err := bexpr(w, e.R, declared); err != nil {
				return err
			}
			w.WriteString(")")
			return nil
		case e.Op.IsComparison():
			op, neg := "", false
			switch e.Op {
			case sym.OpEQ:
				op = "="
			case sym.OpNE:
				op, neg = "=", true
			case sym.OpLT:
				op = "<"
			case sym.OpLE:
				op = "<="
			case sym.OpGT:
				op = ">"
			case sym.OpGE:
				op = ">="
			}
			if neg {
				w.WriteString("(not ")
			}
			w.WriteString("(" + op + " ")
			if err := iexpr(w, e.L, declared); err != nil {
				return err
			}
			w.WriteString(" ")
			if err := iexpr(w, e.R, declared); err != nil {
				return err
			}
			w.WriteString(")")
			if neg {
				w.WriteString(")")
			}
			return nil
		}
	}
	// Integer-valued in boolean position: non-zero is true.
	w.WriteString("(distinct 0 ")
	if err := iexpr(w, e, declared); err != nil {
		return err
	}
	w.WriteString(")")
	return nil
}

// intLit renders an int64 as an SMT-LIB Int term: a numeral, or (- N) for
// a negative value, which parseValues reads back.
func intLit(v int64) string {
	if v < 0 {
		// int64 min negates safely through the uint64 detour.
		return "(- " + strconv.FormatUint(uint64(-(v+1))+1, 10) + ")"
	}
	return strconv.FormatInt(v, 10)
}

// iexpr renders e at sort Int.
func iexpr(w *strings.Builder, e sym.Expr, declared map[string]bool) error {
	switch e := e.(type) {
	case *sym.IntConst:
		w.WriteString(intLit(e.V))
		return nil
	case *sym.Var:
		if !declared[e.Name] {
			return fmt.Errorf("smtlib: variable %q has no declared domain", e.Name)
		}
		w.WriteString(e.Name)
		return nil
	case *sym.Neg:
		w.WriteString("(- ")
		if err := iexpr(w, e.X, declared); err != nil {
			return err
		}
		w.WriteString(")")
		return nil
	case *sym.Ite:
		w.WriteString("(ite ")
		if err := bexpr(w, e.Cond, declared); err != nil {
			return err
		}
		w.WriteString(" ")
		if err := iexpr(w, e.Then, declared); err != nil {
			return err
		}
		w.WriteString(" ")
		if err := iexpr(w, e.Else, declared); err != nil {
			return err
		}
		w.WriteString(")")
		return nil
	case *sym.Bin:
		if e.Op.IsArith() {
			op := ""
			switch e.Op {
			case sym.OpAdd:
				op = "+"
			case sym.OpSub:
				op = "-"
			case sym.OpMul:
				op = "*"
			case sym.OpDiv, sym.OpMod:
				d, ok := e.R.(*sym.IntConst)
				if !ok || d.V == 0 {
					return fmt.Errorf("smtlib: %v with a non-constant or zero divisor is outside the supported fragment", e.Op)
				}
				if e.Op == sym.OpDiv {
					op = "tdiv"
				} else {
					op = "tmod"
				}
			}
			w.WriteString("(" + op + " ")
			if err := iexpr(w, e.L, declared); err != nil {
				return err
			}
			w.WriteString(" ")
			if err := iexpr(w, e.R, declared); err != nil {
				return err
			}
			w.WriteString(")")
			return nil
		}
	}
	// Boolean-valued in integer position: true is 1, false is 0.
	w.WriteString("(ite ")
	if err := bexpr(w, e, declared); err != nil {
		return err
	}
	w.WriteString(" 1 0)")
	return nil
}

// validName reports whether name is a plain SMT-LIB simple symbol the
// printer can emit verbatim. The engine's symbol convention (PedalPos,
// BSwitch) always satisfies it; exotic names from test code fall back to
// unsupported rather than risking a parse error in the solver.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// Reserved words of the concrete syntax the printer itself uses.
	switch name {
	case "assert", "true", "false", "and", "or", "not", "ite", "distinct", "tdiv", "tmod", "div", "mod", "Int", "Bool":
		return false
	}
	return true
}
