package dise

// This file keeps the front end's previous implementations as oracles for
// the current ones: the statement diff over rendered text with a full LCS
// table, the CFG analyses as whole-graph fixpoints over bit rows (the
// post-dominance dataflow of Definition 3.8, control dependence tested pair
// by pair per Definition 3.9, reachability), Tarjan's components as one
// slice each, the stable keys as a map, and the affected sets as map
// fixpoints that scan every node per rule per pass. TestFrontEndMatchesOracles
// and FuzzFrontEndOracle require the two to agree exactly.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dise/internal/artifacts"
	"dise/internal/cfg"
	"dise/internal/diff"
	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/randprog"
)

// --- CFG analyses ------------------------------------------------------------

// refPostDom solves pdom(end) = {end}; pdom(n) = {n} ∪ ⋂_{s ∈ succ(n)}
// pdom(s) from full sets by iteration.
func refPostDom(g *cfg.Graph) []cfg.Bitset {
	n := len(g.Nodes)
	full := cfg.NewBitset(n)
	for i := 0; i < n; i++ {
		full.Set(i)
	}
	pdom := make([]cfg.Bitset, n)
	for i := range pdom {
		pdom[i] = slices.Clone(full)
	}
	end := g.End.ID
	pdom[end] = cfg.NewBitset(n)
	pdom[end].Set(end)
	//diselint:ignore interruptloop bounded fixpoint: every pass shrinks some set or ends, so at most |N|² passes
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			node := g.Nodes[i]
			if node.ID == end || len(node.Succs) == 0 {
				continue
			}
			meet := slices.Clone(full)
			for _, e := range node.Succs {
				meet.And(pdom[e.To.ID])
			}
			meet.Set(node.ID)
			if !reflect.DeepEqual(meet, pdom[node.ID]) {
				pdom[node.ID] = meet
				changed = true
			}
		}
	}
	return pdom
}

// refControlD is Definition 3.9 over refPostDom's sets: ni has two
// successors, one post-dominated by nj and one not.
func refControlD(pdom []cfg.Bitset, ni, nj *cfg.Node) bool {
	if len(ni.Succs) < 2 {
		return false
	}
	some, misses := false, false
	for _, e := range ni.Succs {
		if pdom[e.To.ID].Has(nj.ID) {
			some = true
		} else {
			misses = true
		}
	}
	return some && misses
}

// refReach is reachability as a whole-graph fixpoint.
func refReach(g *cfg.Graph) []cfg.Bitset {
	n := len(g.Nodes)
	reach := make([]cfg.Bitset, n)
	for i := range reach {
		reach[i] = cfg.NewBitset(n)
		reach[i].Set(i)
	}
	//diselint:ignore interruptloop bounded fixpoint: every pass grows some row or ends, so at most |N|² passes
	for changed := true; changed; {
		changed = false
		for _, node := range g.Nodes {
			for _, e := range node.Succs {
				if reach[node.ID].Or(reach[e.To.ID]) {
					changed = true
				}
			}
		}
	}
	return reach
}

// refSCC is recursive Tarjan: every node's component, each component in
// the order its members leave the stack.
func refSCC(g *cfg.Graph) [][]*cfg.Node {
	n := len(g.Nodes)
	comp := make([][]*cfg.Node, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter := 0
	var visit func(v int)
	visit = func(v int) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range g.Nodes[v].Succs {
			w := e.To.ID
			if index[w] == -1 {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		var members []*cfg.Node
		//diselint:ignore interruptloop pops the stack down to v, which is on it
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			members = append(members, g.Nodes[w])
			if w == v {
				break
			}
		}
		for _, m := range members {
			comp[m.ID] = members
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			visit(v)
		}
	}
	return comp
}

// refStableKeys is the node → stable-key map built from ast.StmtKeys.
func refStableKeys(g *cfg.Graph) map[int]string {
	keys := map[int]string{}
	stmtKeys := ast.StmtKeys(g.Proc)
	for _, n := range g.Nodes {
		switch {
		case n == g.Begin:
			keys[n.ID] = cfg.StableKeyBegin
		case n == g.End:
			keys[n.ID] = cfg.StableKeyEnd
		case n == g.Error:
			keys[n.ID] = cfg.StableKeyError
		default:
			keys[n.ID] = stmtKeys[n.Stmt]
		}
	}
	return keys
}

// refUse is Use(n) (Definition 3.7) read off the node's statement.
func refUse(n *cfg.Node) map[string]bool {
	switch s := n.Stmt.(type) {
	case *ast.Assign:
		return refVars(s.Value)
	case nil:
		return map[string]bool{}
	}
	if n.Cond != nil {
		return refVars(n.Cond)
	}
	return map[string]bool{}
}

// refVars returns the set of variable names read by expression e.
func refVars(e ast.Expr) map[string]bool {
	out := map[string]bool{}
	ast.WalkExpr(e, func(x ast.Expr) {
		if id, ok := x.(*ast.Ident); ok {
			out[id.Name] = true
		}
	})
	return out
}

// graphOracle is every reference analysis of one graph; cd[ni] holds the
// nodes control dependent on ni.
type graphOracle struct {
	pdom, reach, cd []cfg.Bitset
	use             []map[string]bool
}

// checkGraph compares every CFG analysis of g with its reference.
func checkGraph(t *testing.T, name string, g *cfg.Graph) *graphOracle {
	t.Helper()
	o := &graphOracle{pdom: refPostDom(g), reach: refReach(g)}
	scc := refSCC(g)
	for _, n := range g.Nodes {
		use := refUse(n)
		o.use = append(o.use, use)
		want := make([]string, 0, len(use))
		for v := range use {
			want = append(want, v)
		}
		slices.Sort(want)
		if !slices.Equal(n.Use, want) {
			t.Fatalf("%s: Use(n%d) = %v, want %v", name, n.ID, n.Use, want)
		}
	}
	for _, ni := range g.Nodes {
		var wantDeps []*cfg.Node
		o.cd = append(o.cd, cfg.NewBitset(len(g.Nodes)))
		for _, nj := range g.Nodes {
			if got, want := g.PostDom(ni, nj), o.pdom[ni.ID].Has(nj.ID); got != want {
				t.Fatalf("%s: PostDom(n%d, n%d) = %v, fixpoint %v", name, ni.ID, nj.ID, got, want)
			}
			want := refControlD(o.pdom, ni, nj)
			if got := g.ControlD(ni, nj); got != want {
				t.Fatalf("%s: ControlD(n%d, n%d) = %v, reference %v", name, ni.ID, nj.ID, got, want)
			}
			if want {
				wantDeps = append(wantDeps, nj)
				o.cd[ni.ID].Set(nj.ID)
			}
		}
		if got := g.ControlDependents(ni); !slices.Equal(got, wantDeps) {
			t.Fatalf("%s: ControlDependents(n%d) = %v, reference %v", name, ni.ID, got, wantDeps)
		}
		if got := g.ReachSet(ni.ID); !reflect.DeepEqual(got, o.reach[ni.ID]) {
			t.Fatalf("%s: ReachSet(%d) = %v, fixpoint %v", name, ni.ID, got, o.reach[ni.ID])
		}
		if got := g.GetSCC(ni); !slices.Equal(got, scc[ni.ID]) {
			t.Fatalf("%s: GetSCC(n%d) = %v, Tarjan %v", name, ni.ID, got, scc[ni.ID])
		}
	}
	keys := g.StableKeys()
	if want := refStableKeys(g); len(keys) != len(want) {
		t.Fatalf("%s: %d stable keys for %d nodes", name, len(keys), len(want))
	} else {
		for id, k := range keys {
			if k != want[id] {
				t.Fatalf("%s: stable key of n%d = %q, want %q", name, id, k, want[id])
			}
		}
	}
	return o
}

// --- diff --------------------------------------------------------------------

// refDiff is the statement diff over rendered text, with the LCS table
// filled for the whole of every statement list.
func refDiff(base, mod *ast.Procedure) *diff.Result {
	r := &diff.Result{
		Base:      base,
		Mod:       mod,
		BaseMarks: map[ast.Stmt]diff.Mark{},
		ModMarks:  map[ast.Stmt]diff.Mark{},
		Pairs:     map[ast.Stmt]ast.Stmt{},
	}
	refDiffBlocks(r, base.Body.Stmts, mod.Body.Stmts)
	return r
}

func refMarkSubtree(marks map[ast.Stmt]diff.Mark, s ast.Stmt, m diff.Mark) {
	ast.Walk([]ast.Stmt{s}, func(st ast.Stmt) { marks[st] = m })
}

func refPairSubtrees(r *diff.Result, b, m ast.Stmt) {
	r.BaseMarks[b] = diff.Unchanged
	r.ModMarks[m] = diff.Unchanged
	r.Pairs[b] = m
	switch b := b.(type) {
	case *ast.If:
		mi := m.(*ast.If)
		refPairBlocks(r, b.Then.Stmts, mi.Then.Stmts)
		if b.Else != nil && mi.Else != nil {
			refPairBlocks(r, b.Else.Stmts, mi.Else.Stmts)
		}
	case *ast.While:
		refPairBlocks(r, b.Body.Stmts, m.(*ast.While).Body.Stmts)
	case *ast.Block:
		refPairBlocks(r, b.Stmts, m.(*ast.Block).Stmts)
	}
}

func refPairBlocks(r *diff.Result, bs, ms []ast.Stmt) {
	for i := range bs {
		refPairSubtrees(r, bs[i], ms[i])
	}
}

func refDiffBlocks(r *diff.Result, bs, ms []ast.Stmt) {
	prevB, prevM := 0, 0
	for _, a := range refLCS(bs, ms) {
		refDiffGap(r, bs[prevB:a[0]], ms[prevM:a[1]])
		refPairSubtrees(r, bs[a[0]], ms[a[1]])
		prevB, prevM = a[0]+1, a[1]+1
	}
	refDiffGap(r, bs[prevB:], ms[prevM:])
}

func refDiffGap(r *diff.Result, bs, ms []ast.Stmt) {
	bi, mi := 0, 0
	//diselint:ignore interruptloop each iteration consumes a statement of bs or ms
	for bi < len(bs) && mi < len(ms) {
		b, m := bs[bi], ms[mi]
		if refSameKind(b, m) {
			refPairChanged(r, b, m)
			bi++
			mi++
			continue
		}
		later := false
		for _, x := range ms[mi+1:] {
			later = later || refSameKind(b, x)
		}
		if later {
			refMarkSubtree(r.ModMarks, m, diff.Added)
			mi++
		} else {
			refMarkSubtree(r.BaseMarks, b, diff.Removed)
			bi++
		}
	}
	for ; bi < len(bs); bi++ {
		refMarkSubtree(r.BaseMarks, bs[bi], diff.Removed)
	}
	for ; mi < len(ms); mi++ {
		refMarkSubtree(r.ModMarks, ms[mi], diff.Added)
	}
}

func refPairChanged(r *diff.Result, b, m ast.Stmt) {
	r.Pairs[b] = m
	condMark := func(x, y ast.Expr) diff.Mark {
		if x.String() != y.String() {
			return diff.Changed
		}
		return diff.Unchanged
	}
	switch b := b.(type) {
	case *ast.If:
		mi := m.(*ast.If)
		mark := condMark(b.Cond, mi.Cond)
		r.BaseMarks[b], r.ModMarks[mi] = mark, mark
		refDiffBlocks(r, b.Then.Stmts, mi.Then.Stmts)
		switch {
		case b.Else != nil && mi.Else != nil:
			refDiffBlocks(r, b.Else.Stmts, mi.Else.Stmts)
		case b.Else != nil:
			for _, s := range b.Else.Stmts {
				refMarkSubtree(r.BaseMarks, s, diff.Removed)
			}
		case mi.Else != nil:
			for _, s := range mi.Else.Stmts {
				refMarkSubtree(r.ModMarks, s, diff.Added)
			}
		}
	case *ast.While:
		mw := m.(*ast.While)
		mark := condMark(b.Cond, mw.Cond)
		r.BaseMarks[b], r.ModMarks[mw] = mark, mark
		refDiffBlocks(r, b.Body.Stmts, mw.Body.Stmts)
	case *ast.Block:
		mb := m.(*ast.Block)
		r.BaseMarks[b], r.ModMarks[mb] = diff.Unchanged, diff.Unchanged
		refDiffBlocks(r, b.Stmts, mb.Stmts)
	default:
		mark := diff.Changed
		if b.String() == m.String() {
			mark = diff.Unchanged
		}
		r.BaseMarks[b], r.ModMarks[m] = mark, mark
	}
}

func refSameKind(a, b ast.Stmt) bool { return reflect.TypeOf(a) == reflect.TypeOf(b) }

func refLCS(bs, ms []ast.Stmt) [][2]int {
	n, m := len(bs), len(ms)
	bkeys := make([]string, n)
	for i, s := range bs {
		bkeys[i] = s.String()
	}
	mkeys := make([]string, m)
	for j, s := range ms {
		mkeys[j] = s.String()
	}
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			switch {
			case bkeys[i] == mkeys[j]:
				dp[i][j] = dp[i+1][j+1] + 1
			case dp[i+1][j] >= dp[i][j+1]:
				dp[i][j] = dp[i+1][j]
			default:
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	var out [][2]int
	//diselint:ignore interruptloop each iteration advances i or j
	for i, j := 0, 0; i < n && j < m; {
		switch {
		case bkeys[i] == mkeys[j]:
			out = append(out, [2]int{i, j})
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return out
}

// checkDiff compares diff.Procedures with refDiff and returns the result.
func checkDiff(t *testing.T, name string, base, mod *ast.Procedure) *diff.Result {
	t.Helper()
	got, want := diff.Procedures(base, mod), refDiff(base, mod)
	if !reflect.DeepEqual(got.BaseMarks, want.BaseMarks) {
		t.Fatalf("%s: base marks differ from the reference", name)
	}
	if !reflect.DeepEqual(got.ModMarks, want.ModMarks) {
		t.Fatalf("%s: mod marks differ from the reference", name)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, reference %d", name, len(got.Pairs), len(want.Pairs))
	}
	for b, m := range want.Pairs {
		if got.Pairs[b] != m {
			t.Fatalf("%s: %s pairs with %v, reference %v", name, b, got.Pairs[b], m)
		}
	}
	if g, w := got.Correspondence().BaseToMod, want.Correspondence().BaseToMod; !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: correspondence %v, reference %v", name, g, w)
	}
	return got
}

// --- affected sets -----------------------------------------------------------

// refAffected is ComputeAffected over maps, with every rule scanning all
// nodes on every pass, on the reference relations.
func refAffected(gBase, gMod *cfg.Graph, oBase, oMod *graphOracle, d *diff.Result, opts Options) (acn, awn map[int]bool, changed int) {
	acn, awn = map[int]bool{}, map[int]bool{}
	removedACN, removedAWN := map[int]bool{}, map[int]bool{}
	anyRemoved := false
	for stmt, mark := range d.BaseMarks {
		n := gBase.NodeFor(stmt)
		if n == nil || mark != diff.Removed {
			continue
		}
		anyRemoved = true
		switch {
		case n.IsCond():
			removedACN[n.ID] = true
		case n.IsWrite():
			removedAWN[n.ID] = true
		}
		changed++
	}
	if anyRemoved {
		refApplyRules(gBase, oBase, removedACN, removedAWN, opts)
		if !opts.SkipEq4 {
			refApplyEq4(gBase, oBase, removedACN, removedAWN)
		}
		for bStmt, mStmt := range d.Pairs {
			bn, mn := gBase.NodeFor(bStmt), gMod.NodeFor(mStmt)
			if bn == nil || mn == nil {
				continue
			}
			if removedACN[bn.ID] && mn.IsCond() {
				acn[mn.ID] = true
			}
			if removedAWN[bn.ID] && mn.IsWrite() {
				awn[mn.ID] = true
			}
		}
	}
	for stmt, mark := range d.ModMarks {
		n := gMod.NodeFor(stmt)
		if n == nil || (mark != diff.Changed && mark != diff.Added) {
			continue
		}
		changed++
		switch {
		case n.IsCond():
			acn[n.ID] = true
		case n.IsWrite():
			awn[n.ID] = true
		}
	}
	refApplyRules(gMod, oMod, acn, awn, opts)
	if !opts.SkipEq4 {
		refApplyEq4(gMod, oMod, acn, awn)
	}
	return acn, awn, changed
}

func refApplyRules(g *cfg.Graph, o *graphOracle, acn, awn map[int]bool, opts Options) {
	//diselint:ignore interruptloop bounded fixpoint: the sets only grow and are capped at |N|
	for changed := true; changed; {
		changed = false
		for id := range acn {
			for _, nj := range g.Nodes {
				if !o.cd[id].Has(nj.ID) {
					continue
				}
				switch {
				case nj.IsCond() && !acn[nj.ID]:
					acn[nj.ID] = true
					changed = true
				case nj.IsWrite() && !awn[nj.ID]:
					awn[nj.ID] = true
					changed = true
				}
			}
		}
		for id := range awn {
			def := g.Nodes[id].Def
			if def == "" {
				continue
			}
			for _, nj := range g.Nodes {
				if !o.reach[id].Has(nj.ID) || !o.use[nj.ID][def] {
					continue
				}
				if nj.IsCond() && !acn[nj.ID] {
					acn[nj.ID] = true
					changed = true
				}
				if opts.TransitiveWrites && nj.IsWrite() && !awn[nj.ID] {
					awn[nj.ID] = true
					changed = true
				}
			}
		}
	}
}

func refApplyEq4(g *cfg.Graph, o *graphOracle, acn, awn map[int]bool) {
	//diselint:ignore interruptloop bounded fixpoint: the set only grows and is capped at |N|
	for changed := true; changed; {
		changed = false
		for _, ni := range g.Nodes {
			if !ni.IsWrite() || awn[ni.ID] || ni.Def == "" {
				continue
			}
			reaches := false
			for _, set := range []map[int]bool{acn, awn} {
				for id := range set {
					reaches = reaches || o.reach[ni.ID].Has(id) && o.use[id][ni.Def]
				}
			}
			if reaches {
				awn[ni.ID] = true
				changed = true
			}
		}
	}
}

func bitsetMembers(b cfg.Bitset) map[int]bool {
	out := map[int]bool{}
	for id := b.Next(0); id >= 0; id = b.Next(id + 1) {
		out[id] = true
	}
	return out
}

// checkFrontEnd compares everything the front end computes for one version
// pair — both graphs' analyses, the diff and the affected sets — with the
// reference implementations. With ablations set, the affected sets are
// also compared under the transitive-writes extension and without Eq. (4).
func checkFrontEnd(t *testing.T, name string, base, mod *ast.Procedure, ablations bool) {
	t.Helper()
	gBase, gMod := cfg.Build(base), cfg.Build(mod)
	oBase := checkGraph(t, name+" base", gBase)
	oMod := checkGraph(t, name+" mod", gMod)
	d := checkDiff(t, name, base, mod)
	options := []Options{{}}
	if ablations {
		options = append(options, Options{TransitiveWrites: true}, Options{SkipEq4: true})
	}
	for _, opts := range options {
		got := ComputeAffected(gBase, gMod, d, opts)
		acn, awn, changed := refAffected(gBase, gMod, oBase, oMod, d, opts)
		if g := bitsetMembers(got.ACN); !reflect.DeepEqual(g, acn) {
			t.Fatalf("%s %+v: ACN %v, reference %v", name, opts, g, acn)
		}
		if g := bitsetMembers(got.AWN); !reflect.DeepEqual(g, awn) {
			t.Fatalf("%s %+v: AWN %v, reference %v", name, opts, g, awn)
		}
		if got.ChangedNodes != changed {
			t.Fatalf("%s %+v: %d changed nodes, reference %d", name, opts, got.ChangedNodes, changed)
		}
	}
}

// randomPair is the program of randprog seed with the given loop setting,
// and a mutant of it with up to changes mutations, printed and parsed back
// so that its positions are real, as the program's are.
func randomPair(t testing.TB, seed int64, loops bool, changes int) (base, mod *ast.Procedure) {
	gen := randprog.New(seed, randprog.Config{Loops: loops})
	prog := gen.Program()
	mutant, _ := gen.Mutate(prog, changes)
	reparsed, err := parser.Parse(ast.Pretty(mutant))
	if err != nil {
		t.Fatalf("seed %d: reparse: %v", seed, err)
	}
	return prog.Proc("p"), reparsed.Proc("p")
}

// TestFrontEndMatchesOracles runs checkFrontEnd on every artifact version
// against its base (all 43 programs) and on randprog seeds 0–2999, with and
// without loops, base against mutant; the ablation options run on the
// artifacts and on every tenth seed.
func TestFrontEndMatchesOracles(t *testing.T) {
	for _, art := range artifacts.All() {
		base := art.BaseProgram()
		for _, pr := range base.Procs {
			checkGraph(t, fmt.Sprintf("%s base/%s", art.Name, pr.Name), cfg.Build(pr))
		}
		for _, v := range art.Versions {
			mod := art.ProgramFor(v)
			for _, pr := range mod.Procs {
				checkGraph(t, fmt.Sprintf("%s %s/%s", art.Name, v.Name, pr.Name), cfg.Build(pr))
			}
			checkFrontEnd(t, art.Name+" "+v.Name, base.Proc(art.Proc), mod.Proc(art.Proc), true)
		}
	}
	seeds := int64(3000)
	if testing.Short() {
		seeds = 300
	}
	for _, loops := range []bool{false, true} {
		for seed := int64(0); seed < seeds; seed++ {
			base, mod := randomPair(t, seed, loops, 3)
			checkFrontEnd(t, fmt.Sprintf("randprog %d loops=%v", seed, loops), base, mod, seed%10 == 0)
		}
	}
}

// FuzzFrontEndOracle is TestFrontEndMatchesOracles over arbitrary randprog
// seeds, loop settings and mutation counts.
func FuzzFrontEndOracle(f *testing.F) {
	f.Add(int64(0), false, uint8(2))
	f.Add(int64(7), true, uint8(1))
	f.Add(int64(12345), true, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, loops bool, changes uint8) {
		base, mod := randomPair(t, seed, loops, 1+int(changes%4))
		checkFrontEnd(t, fmt.Sprintf("randprog %d loops=%v changes=%d", seed, loops, changes), base, mod, true)
	})
}
