package dise

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dise/internal/cfg"
	"dise/internal/diff"
	"dise/internal/lang/parser"
)

// ifChain is the long procedure of n statements
// "if (a > i) { xk = b + i; } else { xk = c; }" with k = i mod 50; changed
// rewrites the else arm of the middle one.
func ifChain(n int, changed bool) string {
	var b strings.Builder
	b.WriteString("proc p(int a, int b, int c) {\n")
	for i := 0; i < n; i++ {
		other := "c"
		if changed && i == n/2 {
			other = "c + 1"
		}
		fmt.Fprintf(&b, "  if (a > %d) {\n    x%d = b + %d;\n  } else {\n    x%d = %s;\n  }\n", i, i%50, i, i%50, other)
	}
	b.WriteString("}\n")
	return b.String()
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLongProcedureFrontEndGrowsLinearly bounds the growth of the diff and
// of the post-dominance computation on a long procedure with one change:
// from n = 1,000 to n = 8,000 statements their allocations may grow at most
// tenfold (linear growth is eightfold, quadratic sixty-fourfold). It logs
// the whole analysis's wall time at both sizes.
func TestLongProcedureFrontEndGrowsLinearly(t *testing.T) {
	sizes := []int{1000, 8000}
	diffBytes := make([]uint64, len(sizes))
	pdomBytes := make([]uint64, len(sizes))
	for i, n := range sizes {
		baseSrc, modSrc := ifChain(n, false), ifChain(n, true)
		_, base, err := parser.ParseProcedure(baseSrc, "p")
		if err != nil {
			t.Fatal(err)
		}
		_, mod, err := parser.ParseProcedure(modSrc, "p")
		if err != nil {
			t.Fatal(err)
		}
		var d *diff.Result
		diffBytes[i] = allocated(func() { d = diff.Procedures(base, mod) })
		if got := d.ChangedModLines(); len(got) != 1 {
			t.Fatalf("n = %d: changed lines %v, want one", n, got)
		}
		g := cfg.Build(mod)
		pdomBytes[i] = allocated(func() { g.PostDom(g.Begin, g.End) })

		a := NewAnalyzer(WithDepthBound(8))
		start := time.Now()
		res, err := a.Analyze(context.Background(), Request{BaseSrc: baseSrc, ModSrc: modSrc, Proc: "p"})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n = %d: Analyze %v, %d states; diff %d KB, post-dominance %d KB",
			n, time.Since(start), res.Stats.StatesExplored, diffBytes[i]>>10, pdomBytes[i]>>10)
	}
	if diffBytes[1] > 10*diffBytes[0] {
		t.Errorf("diff allocations grew from %d to %d bytes, over tenfold for eightfold input", diffBytes[0], diffBytes[1])
	}
	if pdomBytes[1] > 10*pdomBytes[0] {
		t.Errorf("post-dominance allocations grew from %d to %d bytes, over tenfold for eightfold input", pdomBytes[0], pdomBytes[1])
	}
}
