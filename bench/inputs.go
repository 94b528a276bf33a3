package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dise/internal/artifacts"
	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/randprog"
	"dise/internal/solver"
	"dise/internal/symexec"
)

// chain is one sequence of program versions: versions[0] is the base, and
// names[i] labels versions[i] in op IDs ("OAE/v3").
type chain struct {
	name     string
	proc     string
	names    []string
	versions []string
}

func (c chain) opID(i int) string { return c.name + "/" + c.names[i] }

// artifactChains are the paper's three evaluation artifacts (ASW 15
// versions, WBS 16, OAE 9) as base-first version chains. They are the same
// for every seed.
func artifactChains() []chain {
	var out []chain
	for _, art := range artifacts.All() {
		c := chain{name: art.Name, proc: art.Proc, names: []string{"base"}, versions: []string{art.Base}}
		for _, v := range art.Versions {
			c.names = append(c.names, v.Name)
			c.versions = append(c.versions, art.SourceFor(v))
		}
		out = append(out, c)
	}
	return out
}

// pair is one version pair of a random program; gen is the randprog
// generator seed it came from.
type pair struct {
	gen       int64
	base, mod string
}

// randomPair is the program of generator seed g (internal/randprog, default
// Config) and a mutant of it with one or two mutations, pretty-printed.
func randomPair(g int64) pair {
	gen := randprog.New(g, randprog.Config{})
	prog := gen.Program()
	mutant, _ := gen.Mutate(prog, 2)
	return pair{gen: g, base: ast.Pretty(prog), mod: ast.Pretty(mutant)}
}

// randomChain is the program of generator seed g evolved through steps
// seeded mutations: a random tenant of the dised workload.
func randomChain(name string, g int64, steps int) chain {
	gen := randprog.New(g, randprog.Config{})
	prog := gen.Program()
	c := chain{name: name, proc: "p", names: []string{"v0"}, versions: []string{ast.Pretty(prog)}}
	for step := 1; step <= steps; step++ {
		prog, _ = gen.Mutate(prog, 1+step%2)
		c.names = append(c.names, fmt.Sprintf("v%d", step))
		c.versions = append(c.versions, ast.Pretty(prog))
	}
	return c
}

// randomPool is which random programs the workloads use. It is data, written
// once by "disebench inputs" and read by every run, so the inputs of a seed
// do not depend on the code being measured: a change to the solver or to
// exploration cannot change which programs a run draws.
//
// About 1% of default-Config random programs carry constraints whose solver
// search runs to tens of thousands of nodes and takes 20-750 ms, against well
// under a millisecond for the rest. Left in, those few would decide a random
// workload's throughput, make it a solver workload, and let the seed decide
// how many of them a run meets. The pool leaves them out.
type randomPool struct {
	// Size is the number of generator seeds in the pool, 0 to Size-1.
	Size int64 `json:"size"`
	// Heavy lists, in increasing order, the generator seeds whose pair
	// (randomPair) is left out.
	Heavy []int64 `json:"heavy"`
	// Chains are the generator seeds of dised's random chains (randomChain
	// with disedRandSteps steps), every version of which is light.
	Chains []int64 `json:"chains"`
}

//go:embed inputs/random.json
var randomPoolJSON []byte

func loadPool() (*randomPool, error) {
	var p randomPool
	if err := json.Unmarshal(randomPoolJSON, &p); err != nil {
		return nil, fmt.Errorf("inputs/random.json: %w", err)
	}
	if p.Size <= 0 || len(p.Chains) < disedRandChains {
		return nil, fmt.Errorf("inputs/random.json: size %d, %d chains; rewrite it with disebench inputs", p.Size, len(p.Chains))
	}
	return &p, nil
}

// randSource walks half of the pool from a starting point, skipping heavy
// generator seeds.
type randSource struct {
	pool  *randomPool
	heavy map[int64]bool
	start int64
	taken int64 // generator seeds walked past so far
}

// stream returns the measured random inputs of a run seed and warmup its
// warm-up inputs. The seed picks the starting point; each walks its own
// half of the pool from there, so no program comes twice in a run.
func (p *randomPool) stream(seed int64) *randSource { return p.walk(seed, 0) }

func (p *randomPool) warmup(seed int64) *randSource { return p.walk(seed, p.Size/2) }

func (p *randomPool) walk(seed, offset int64) *randSource {
	heavy := make(map[int64]bool, len(p.Heavy))
	for _, g := range p.Heavy {
		heavy[g] = true
	}
	start := (int64(mix64(uint64(seed))%uint64(p.Size)) + offset) % p.Size
	return &randSource{pool: p, heavy: heavy, start: start}
}

// pair returns the next pair of the stream; false once its half of the
// pool is spent.
func (s *randSource) pair() (pair, bool) {
	for s.taken < s.pool.Size/2 {
		g := (s.start + s.taken) % s.pool.Size
		s.taken++
		if !s.heavy[g] {
			return randomPair(g), true
		}
	}
	return pair{}, false
}

// mix64 is the splitmix64 finalizer: it spreads consecutive seeds over the
// pool.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// poolSize is how many generator seeds "disebench inputs" classifies: more
// distinct programs than any run draws.
const poolSize = 100_000

// The bounds of a light program: its full symbolic execution stays within
// lightStates states, no check searches past lightCheckNodes nodes, and the
// run makes at most lightPropagations propagations. Normal programs use
// under a hundred propagations, the heavy ones over a hundred thousand.
const (
	lightStates       = 1000
	lightCheckNodes   = 500
	lightPropagations = 5000
)

// light reports whether a random program (procedure p) is light. The check
// runs with a per-check search budget, so rejecting a heavy program is fast.
func light(src string) bool {
	prog, err := parser.Parse(src)
	if err != nil {
		return false
	}
	e, err := symexec.New(prog, "p", symexec.Config{
		MaxStates:     lightStates,
		SolverOptions: solver.Options{NodeBudget: lightCheckNodes},
	})
	if err != nil {
		return false
	}
	st := e.RunFull().Stats
	return !st.MaxStatesHit && st.Solver.Unknown == 0 && st.Solver.Propagations <= lightPropagations
}

// runInputs implements "disebench inputs FILE": it classifies the pool's
// generator seeds and picks dised's chains, and writes the result as JSON
// (the embedded inputs/random.json). It takes a few minutes. Rewrite the
// file only when the benchmark's inputs are meant to change; golden outputs
// then need rewriting too.
func runInputs(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: disebench inputs FILE")
		return 2
	}
	p := randomPool{Size: poolSize}
	for g := int64(0); g < poolSize; g++ {
		pr := randomPair(g)
		if !light(pr.base) || !light(pr.mod) {
			p.Heavy = append(p.Heavy, g)
		}
	}
	for g := int64(0); len(p.Chains) < disedRandChains; g++ {
		ok := true
		for _, src := range randomChain("", g, disedRandSteps).versions {
			ok = ok && light(src)
		}
		if ok {
			p.Chains = append(p.Chains, g)
		}
	}
	buf, err := json.Marshal(p)
	if err == nil {
		err = os.WriteFile(args[0], append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "disebench inputs:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %d generator seeds, %d heavy, chains %v\n", args[0], p.Size, len(p.Heavy), p.Chains)
	return 0
}
