package symexec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dise/internal/sym"
)

// TestEnvCopyOnWrite pins the persistence contract of Env: Set never
// mutates the receiver, unrelated bindings are shared, and a no-op write
// (same interned expression) returns the identical environment.
func TestEnvCopyOnWrite(t *testing.T) {
	base := NewEnv(map[string]sym.Expr{
		"a": sym.V("A"),
		"b": sym.V("B"),
	})
	mod := base.Set("a", sym.Add(sym.V("A"), sym.One))
	if v, _ := base.Get("a"); v != sym.V("A") {
		t.Fatalf("Set mutated the receiver: base a = %s", v)
	}
	if v, _ := mod.Get("a"); v.String() != "A + 1" {
		t.Fatalf("mod a = %s, want A + 1", v)
	}
	if v, _ := mod.Get("b"); v != sym.V("B") {
		t.Fatalf("mod lost unrelated binding: b = %s", v)
	}
	if _, ok := base.Get("missing"); ok {
		t.Fatalf("Get of absent name reported present")
	}
}

// sameEntries reports whether two entry slices are the same slice: equal
// length over the same backing array.
func sameEntries(a, b []envEntry) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// envNames lists an environment's names in Each order.
func envNames(e Env) []string {
	var names []string
	e.Each(func(name string, _ sym.Expr) { names = append(names, name) })
	return names
}

// TestEnvWriteLogShadowsBase pins that a write to a base binding lands in
// the write log, shadows the base entry for Get, Each and Map, and leaves
// the shared base untouched.
func TestEnvWriteLogShadowsBase(t *testing.T) {
	base := NewEnv(map[string]sym.Expr{"a": sym.V("A"), "b": sym.V("B")})
	mod := base.Set("b", sym.Int(7))
	if !sameEntries(mod.base, base.base) || len(mod.log) != 1 {
		t.Fatalf("write copied the base (shared %v) or logged %d entries, want shared base and 1", sameEntries(mod.base, base.base), len(mod.log))
	}
	if v, _ := mod.Get("b"); v != sym.Int(7) {
		t.Fatalf("Get(b) = %s, want the logged 7", v)
	}
	if v, _ := base.Get("b"); v != sym.V("B") {
		t.Fatalf("base b = %s after the write, want B", v)
	}
	if got := envNames(mod); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Each names = %v, want [a b] (shadowed entry once)", got)
	}
	if mod.Len() != 2 {
		t.Fatalf("Len = %d, want 2", mod.Len())
	}
	if m := mod.Map(); len(m) != 2 || m["b"] != sym.Int(7) || m["a"] != sym.V("A") {
		t.Fatalf("Map = %v", m)
	}
}

// TestEnvWriteLogInsertAndFold pins the two insert paths: a new name joins
// the log while it has room (base still shared), and a new name meeting a
// full log folds base and log into a fresh base.
func TestEnvWriteLogInsertAndFold(t *testing.T) {
	base := NewEnv(map[string]sym.Expr{"m": sym.V("M")})
	env := base
	for i := 0; i < envLogMax; i++ {
		env = env.Set(fmt.Sprintf("v%d", i), sym.Int(int64(i)))
		if !sameEntries(env.base, base.base) || len(env.log) != i+1 {
			t.Fatalf("insert %d: base shared %v, log %d entries, want shared and %d", i, sameEntries(env.base, base.base), len(env.log), i+1)
		}
	}
	full := env
	// Rewriting a logged name keeps the log's size: no fold.
	if re := full.Set("v3", sym.Int(30)); len(re.log) != envLogMax || !sameEntries(re.base, base.base) {
		t.Fatalf("rewrite of a logged name folded: log %d", len(re.log))
	}
	folded := full.Set("a", sym.Int(-1))
	if len(folded.base) != 1+envLogMax || len(folded.log) != 1 {
		t.Fatalf("fold: base %d entries, log %d, want %d and 1", len(folded.base), len(folded.log), 1+envLogMax)
	}
	want := []string{"a", "m", "v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	if got := envNames(folded); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Each names after fold = %v, want %v", got, want)
	}
	if folded.Len() != len(want) || full.Len() != len(want)-1 {
		t.Fatalf("Len: folded %d, full %d", folded.Len(), full.Len())
	}
	if v, _ := folded.Get("v5"); v != sym.Int(5) {
		t.Fatalf("folded v5 = %s, want 5", v)
	}
	if _, ok := full.Get("a"); ok || len(full.log) != envLogMax {
		t.Fatalf("fold mutated the receiver")
	}
}

// TestEnvNoOpWrite pins that rebinding a name to the expression it already
// has returns the receiver itself, whether the binding lives in the base or
// in the log.
func TestEnvNoOpWrite(t *testing.T) {
	env := NewEnv(map[string]sym.Expr{"a": sym.V("A"), "b": sym.V("B")}).Set("b", sym.Add(sym.V("B"), sym.One))
	for _, w := range []struct {
		name string
		val  sym.Expr
	}{{"a", sym.V("A")}, {"b", sym.Add(sym.V("B"), sym.One)}} {
		same := env.Set(w.name, w.val)
		if !sameEntries(same.base, env.base) || !sameEntries(same.log, env.log) {
			t.Fatalf("no-op write of %s did not return the receiver", w.name)
		}
	}
}

// TestEnvMatchesMapModel replays a long deterministic write sequence —
// rewrites, inserts, no-op writes, folds — against a plain map and checks
// Get, Len, Each order and Map after every write.
func TestEnvMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := map[string]sym.Expr{"p": sym.V("P"), "q": sym.V("Q")}
	env := NewEnv(model)
	for step := 0; step < 2000; step++ {
		name := fmt.Sprintf("x%02d", rng.Intn(24))
		val := sym.Int(int64(rng.Intn(4)))
		prev := env
		env = env.Set(name, val)
		model[name] = val
		if v, _ := prev.Get(name); v == val && (!sameEntries(env.base, prev.base) || !sameEntries(env.log, prev.log)) {
			t.Fatalf("step %d: no-op write of %s allocated", step, name)
		}
		if len(env.log) > envLogMax {
			t.Fatalf("step %d: log holds %d entries", step, len(env.log))
		}
		if env.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, env.Len(), len(model))
		}
		names := envNames(env)
		if !sort.StringsAreSorted(names) || len(names) != len(model) {
			t.Fatalf("step %d: Each names %v not sorted or wrong count", step, names)
		}
		for n, v := range model {
			if got, ok := env.Get(n); !ok || got != v {
				t.Fatalf("step %d: Get(%s) = %v, want %v", step, n, got, v)
			}
		}
		if m := env.Map(); len(m) != len(model) {
			t.Fatalf("step %d: Map has %d entries, want %d", step, len(m), len(model))
		}
	}
}

// TestTraceSharedTail pins the trace list: appends share the tail, Slice
// restores execution order at exact size, Any sees every statement.
func TestTraceSharedTail(t *testing.T) {
	var root *Trace
	a := root.Append(3)
	b := a.Append(5)
	sibling := a.Append(7)
	if root.Len() != 0 || a.Len() != 1 || b.Len() != 2 || sibling.Len() != 2 {
		t.Fatalf("lengths = %d/%d/%d/%d", root.Len(), a.Len(), b.Len(), sibling.Len())
	}
	if got := b.Slice(); len(got) != 2 || cap(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("b.Slice() = %v (cap %d)", got, cap(got))
	}
	if got := sibling.Slice(); got[0] != 3 || got[1] != 7 {
		t.Fatalf("sibling.Slice() = %v", got)
	}
	if root.Slice() != nil {
		t.Fatalf("empty trace materialized non-nil")
	}
	if !b.Any(func(id int) bool { return id == 3 }) || b.Any(func(id int) bool { return id == 7 }) {
		t.Fatalf("Any disagrees with the trace's members")
	}
}

// TestExploreBytesLinearInPathLength pins that a path costs memory linear in
// its length: full symbolic execution of a straight-line procedure of N
// statements may allocate at most 10x as much per run at N=400 as at N=50
// (8x the statements). Copying the whole trace on every statement step made
// the cost quadratic.
func TestExploreBytesLinearInPathLength(t *testing.T) {
	bytesPerRun := func(n int) int64 {
		var src strings.Builder
		src.WriteString("int g = 0;\nproc p(int x) {\n")
		for i := 0; i < n; i++ {
			src.WriteString("  g = g + x;\n")
		}
		src.WriteString("}\n")
		e := newEngine(t, src.String(), "p", Config{})
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := len(e.RunFull().Paths); got != 1 {
					b.Fatalf("paths = %d, want 1", got)
				}
			}
		}).AllocedBytesPerOp()
	}
	short, long := bytesPerRun(50), bytesPerRun(400)
	if short <= 0 || long > 10*short {
		t.Fatalf("bytes per run: %d at 50 statements, %d at 400 (%.1fx), want at most 10x", short, long, float64(long)/float64(short))
	}
	t.Logf("bytes per run: %d at 50 statements, %d at 400 (%.1fx)", short, long, float64(long)/float64(short))
}

// TestPathCondSharedTail pins the path-condition list: appends share the
// tail, materialization restores root-first order, and AppendTo reuses a
// big-enough buffer without allocating.
func TestPathCondSharedTail(t *testing.T) {
	c1 := sym.Cmp(sym.OpGT, sym.V("X"), sym.Zero)
	c2 := sym.Cmp(sym.OpLT, sym.V("Y"), sym.Int(10))
	c3 := sym.Cmp(sym.OpEQ, sym.V("Z"), sym.One)

	var root *PathCond
	p1 := root.Append(c1)
	p2 := p1.Append(c2)
	sibling := p1.Append(c3)

	if root.Len() != 0 || p1.Len() != 1 || p2.Len() != 2 || sibling.Len() != 2 {
		t.Fatalf("lengths = %d/%d/%d/%d", root.Len(), p1.Len(), p2.Len(), sibling.Len())
	}
	if got := p2.Slice(); len(got) != 2 || got[0] != c1 || got[1] != c2 {
		t.Fatalf("p2.Slice() = %v", got)
	}
	if got := sibling.Slice(); got[0] != c1 || got[1] != c3 {
		t.Fatalf("sibling.Slice() = %v", got)
	}
	if root.Slice() != nil {
		t.Fatalf("empty PC materialized non-nil")
	}
	// Buffer reuse: a second AppendTo into the same backing array must not
	// grow it.
	buf := make([]sym.Expr, 0, 8)
	out := p2.AppendTo(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatalf("AppendTo did not reuse the provided buffer")
	}
	out2 := sibling.AppendTo(out[:0])
	if &out2[0] != &out[0] || out2[1] != c3 {
		t.Fatalf("AppendTo reuse produced %v", out2)
	}
}

// TestForkSharesUntilWrite pins the persistent fork: successor states share
// the parent's environment and trace until a write or a statement append
// extends them, and sibling branch states never see each other's
// extensions.
func TestForkSharesUntilWrite(t *testing.T) {
	src := `proc p(int x) {
		if (x > 0) {
			y = 1;
		} else {
			y = 2;
		}
	}`
	e := newEngine(t, src, "p", Config{})
	s := e.InitialState()
	cond := e.Successors(s)[0] // begin -> cond
	kids := e.Successors(cond) // the two branch arms
	if len(kids) != 2 {
		t.Fatalf("feasible branches = %d, want 2", len(kids))
	}
	tr, fl := kids[0], kids[1]
	if tr.PC.Len() != 1 || fl.PC.Len() != 1 {
		t.Fatalf("branch PC lengths = %d/%d, want 1/1", tr.PC.Len(), fl.PC.Len())
	}
	if tr.PC.Slice()[0] == fl.PC.Slice()[0] {
		t.Fatalf("sibling branches share the same branch constraint")
	}
	// Both writes proceed; each sibling sees only its own assignment.
	wt := e.Successors(tr)[0]
	wf := e.Successors(fl)[0]
	vt, _ := wt.Env.Get("y")
	vf, _ := wf.Env.Get("y")
	if vt != sym.One || vf != sym.Int(2) {
		t.Fatalf("y after writes = %s / %s, want 1 / 2", vt, vf)
	}
	if _, ok := tr.Env.Get("y"); ok {
		t.Fatalf("write leaked into the parent state's environment")
	}
}
