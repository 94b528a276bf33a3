package smtlib

import (
	"math"
	"testing"
)

// FuzzParseValues checks the get-value reply parser on arbitrary input: it
// returns a model or an error and never panics, and a reply binding two
// int64 values, rendered the way the printer renders integer terms
// (intLit, which iexpr uses), parses back to exactly those values. Run with
// `go test -fuzz FuzzParseValues` for continuous fuzzing; the seed corpus
// runs as part of the normal test suite.
func FuzzParseValues(f *testing.F) {
	seeds := []struct {
		reply string
		a, b  int64
	}{
		{"((X 3)\n (Y (- 2)))", 3, -2},
		{"((X 3))", 0, 0},
		{"((X 3) (Y whoops))", 1, -1},
		{"(error \"no model\")", 0, 1},
		{"((X 3) (X 4) (Y 0))", -1, 0},
		{"((X (- 9223372036854775808)) (Y 9223372036854775807))", math.MinInt64, math.MaxInt64},
		{"((X (- 0)) (Y (- (- 1))))", math.MaxInt64, math.MinInt64},
		{"", math.MinInt64 + 1, math.MaxInt64 - 1},
	}
	for _, s := range seeds {
		f.Add(s.reply, s.a, s.b)
	}
	vars := []string{"X", "Y"}
	f.Fuzz(func(t *testing.T, reply string, a, b int64) {
		if m, err := parseValues(reply, vars); err == nil && len(m) < len(vars) {
			t.Fatalf("parseValues(%q) = %v: accepted a model missing a variable", reply, m)
		}
		rendered := "((X " + intLit(a) + ") (Y " + intLit(b) + "))"
		m, err := parseValues(rendered, vars)
		if err != nil {
			t.Fatalf("parseValues(%q): %v", rendered, err)
		}
		if m["X"] != a || m["Y"] != b || len(m) != 2 {
			t.Fatalf("parseValues(%q) = %v, want X=%d Y=%d", rendered, m, a, b)
		}
	})
}
