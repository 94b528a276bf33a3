package parser

import (
	"strings"
	"testing"

	"dise/internal/lang/ast"
)

// FuzzParseRoundTrip checks two robustness properties on arbitrary input:
// the parser never panics, and any program it accepts pretty-prints to a
// form it accepts again with an identical rendering (print/parse is a
// fixed point). Run with `go test -fuzz FuzzParseRoundTrip` for continuous
// fuzzing; the seed corpus runs as part of the normal test suite.
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		"",
		"proc p() { }",
		"int G = 1;\nproc p(int x) { if (x > 0) { y = x; } }",
		"proc p(int a, bool b) { while (a < 3) { a = a + 1; } assert b; }",
		"proc f(int v) { o = v; } proc main(int x) { f(x + 1); }",
		"proc p() { skip; return; }",
		"proc broken( {",
		"int x = ;",
		"proc p() { x = 1 + ; }",
		"proc p() { if (a && !b || c) { x = -5 % 2; } else { x = 0; } }",
		// Deep expressions, so every run drives the printer through a long
		// operator chain and through nested unary and parenthesised operands.
		"proc p(int a) { b = " + strings.Repeat("a + ", 1999) + "a; }",
		"proc p(int a, bool c) { b = " + strings.Repeat("-(a - ", 300) + "-a" + strings.Repeat(")", 300) +
			"; d = " + strings.Repeat("!(c && ", 300) + "!c" + strings.Repeat(")", 300) + "; }",
		"proc p(int a, bool c) { b = -(-(a * (a - -a))) % -(0 - (a / -(-a))); d = !(!(c && !(a < -1))) || !!c; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := ast.Pretty(prog)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted program does not reparse: %v\noriginal: %q\nprinted: %q", err, src, printed)
		}
		if second := ast.Pretty(again); second != printed {
			t.Fatalf("pretty print not a fixed point:\nfirst:\n%s\nsecond:\n%s", printed, second)
		}
	})
}
