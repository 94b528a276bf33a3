package memo_test

import (
	"fmt"
	"testing"

	"dise/internal/artifacts"
	"dise/internal/cfg"
	"dise/internal/diff"
	idise "dise/internal/dise"
	"dise/internal/lang/ast"
	"dise/internal/lang/types"
	"dise/internal/memo"
	"dise/internal/randprog"
	"dise/internal/symexec"
)

// The running accounting — Usage, Size, Bytes and Rekey's counts — must
// equal the whole-trie walks it replaced (reference_test.go) after every
// mutation a session makes: the seeding run, each step's Rekey or
// Invalidate, each directed run, and each Enforce.

// chain drives a trie through a version chain the way dise.Session does,
// checking the accounting against the reference walks at every step.
type chain struct {
	t       testing.TB
	tree    *memo.Tree
	proc    string
	prev    *ast.Procedure
	prevG   *cfg.Graph
	prevSig string
	// rekeyed and invalidated count the steps that exercised each path.
	rekeyed, invalidated int
}

func (c *chain) check(when string) {
	c.t.Helper()
	if err := memo.CheckUsage(c.tree); err != nil {
		c.t.Fatalf("%s: %v", when, err)
	}
}

// engine type-checks prog and builds an engine over c's trie.
func (c *chain) engine(prog *ast.Program) *symexec.Engine {
	c.t.Helper()
	if _, err := types.Check(prog); err != nil {
		c.t.Fatal(err)
	}
	proc := prog.Proc(c.proc)
	g := cfg.Build(proc)
	g.Precompute()
	e, err := symexec.NewPrepared(prog, proc, g, symexec.Config{Memo: c.tree})
	if err != nil {
		c.t.Fatal(err)
	}
	return e
}

func newChain(t testing.TB, prog *ast.Program, proc string, budget int) *chain {
	c := &chain{t: t, tree: &memo.Tree{}, proc: proc}
	c.tree.SetNodeBudget(budget)
	c.check("empty")
	c.tree.BeginStep()
	e := c.engine(prog)
	symexec.NewExplorer(e, symexec.ExploreOptions{CountOnly: true}).Run()
	c.check("seed")
	c.tree.Enforce()
	c.check("seed Enforce")
	c.prev, c.prevG, c.prevSig = e.Proc, e.Graph, e.MemoSignature()
	return c
}

func (c *chain) advance(prog *ast.Program, step string) {
	c.t.Helper()
	e := c.engine(prog)
	d := diff.Procedures(c.prev, e.Proc)
	if sig := e.MemoSignature(); sig != c.prevSig {
		want, _ := memo.RefUsage(c.tree)
		if got := c.tree.Invalidate(); got != want {
			c.t.Fatalf("%s: Invalidate dropped %d nodes, reference walk %d", step, got, want)
		}
		c.invalidated++
	} else {
		if _, _, err := memo.RekeyChecked(c.tree, correspondence(d)); err != nil {
			c.t.Fatalf("%s: %v", step, err)
		}
		c.rekeyed++
	}
	c.check(step + " rekey")
	c.tree.BeginStep()
	idise.Run(idise.Job{BaseProc: c.prev, BaseGraph: c.prevG, Diff: d, Engine: e})
	c.check(step + " run")
	c.tree.Enforce()
	c.check(step + " Enforce")
	c.prev, c.prevG, c.prevSig = e.Proc, e.Graph, e.MemoSignature()
}

// correspondence is the session's rekeying map: the diff's unchanged
// statements plus the statement-less nodes.
func correspondence(d *diff.Result) map[string]string {
	corr := d.Correspondence().BaseToMod
	corr[cfg.StableKeyBegin] = cfg.StableKeyBegin
	corr[cfg.StableKeyEnd] = cfg.StableKeyEnd
	corr[cfg.StableKeyError] = cfg.StableKeyError
	return corr
}

// withParam returns a copy of prog whose procedure takes one more input:
// the symbolic inputs change, so a session invalidates its whole trie.
func withParam(prog *ast.Program, proc string) *ast.Program {
	out := ast.CloneProgram(prog)
	p := out.Proc(proc)
	p.Params = append(p.Params, ast.Param{Name: fmt.Sprintf("extra%d", len(p.Params)), Type: ast.TypeInt})
	return out
}

// TestTrieAccountingArtifactChains runs every step of the three artifact
// chains, then an added parameter, with no budget and with one small
// enough that every Enforce evicts.
func TestTrieAccountingArtifactChains(t *testing.T) {
	for _, art := range artifacts.All() {
		for _, budget := range []int{0, 64} {
			t.Run(fmt.Sprintf("%s/budget=%d", art.Name, budget), func(t *testing.T) {
				c := newChain(t, art.BaseProgram(), art.Proc, budget)
				last := art.BaseProgram()
				for _, v := range art.Versions {
					last = art.ProgramFor(v)
					c.advance(last, v.Name)
				}
				c.advance(withParam(last, art.Proc), "added parameter")
				c.advance(art.BaseProgram(), "back to the base")
				if c.invalidated != 2 {
					t.Fatalf("%d steps invalidated the trie, want 2 (the parameter added and removed)", c.invalidated)
				}
				if _, nodes := c.tree.EvictionStats(); (nodes > 0) != (budget > 0) {
					t.Fatalf("budget %d evicted %d nodes", budget, nodes)
				}
			})
		}
	}
}

// randChain runs a random version chain: mutations interleaved with reverts
// to earlier versions, which re-match retained subtrees, and one added
// parameter.
func randChain(t testing.TB, seed int64, steps, budget int) *chain {
	gen := randprog.New(seed, randprog.Config{MaxStmts: 4, MaxDepth: 3})
	versions := []*ast.Program{gen.Program()}
	c := newChain(t, versions[0], "p", budget)
	for i := 0; i < steps; i++ {
		cur := versions[len(versions)-1]
		var next *ast.Program
		switch i % 4 {
		case 1:
			next = versions[len(versions)/2] // revert to an earlier version
		case 3:
			if i == 3 {
				next = withParam(cur, "p")
				break
			}
			fallthrough
		default:
			next, _ = gen.Mutate(cur, 2)
		}
		c.advance(next, fmt.Sprintf("seed %d step %d", seed, i))
		versions = append(versions, next)
	}
	return c
}

// TestTrieAccountingRandomChains runs random version chains with reverted
// edits, with and without a node budget.
func TestTrieAccountingRandomChains(t *testing.T) {
	var evicted int64
	invalidated := 0
	for seed := int64(0); seed < 40; seed++ {
		for _, budget := range []int{0, 24} {
			c := randChain(t, seed, 8, budget)
			_, nodes := c.tree.EvictionStats()
			evicted += nodes
			invalidated += c.invalidated
		}
	}
	if evicted == 0 || invalidated == 0 {
		t.Fatalf("the chains evicted %d nodes and invalidated %d tries; both paths must run", evicted, invalidated)
	}
}

// FuzzTrieAccounting explores (seed, chain length, budget) for random
// chains.
func FuzzTrieAccounting(f *testing.F) {
	f.Add(int64(1), uint8(6), uint16(0))
	f.Add(int64(7), uint8(9), uint16(16))
	f.Add(int64(42), uint8(12), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, budget uint16) {
		randChain(t, seed, int(steps%16), int(budget%64))
	})
}
