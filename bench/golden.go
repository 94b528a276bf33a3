package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"dise"
	idise "dise/internal/dise"
	"dise/internal/lang/parser"
	"dise/internal/symexec"
	"dise/internal/testgen"
)

// goldenFS holds the expected outputs of the default seed (see runGolden).
//
//go:embed golden/*.json
var goldenFS embed.FS

// defaultSeed is the seed the golden outputs were recorded with.
const defaultSeed = 1

// goldenRandOps is how many leading randcold ops of the default seed the
// golden file pins; later ops, and every op of other seeds, are checked by
// the cold re-run instead.
const goldenRandOps = 1000

// output is the checked outcome of one op: its path-condition count and a
// digest of the rendered path conditions (assertion flags included) and of
// the rendered test calls (none for ops that do not generate tests).
type output struct {
	PCs    int    `json:"pcs"`
	Digest string `json:"digest"`
}

func (o output) String() string { return fmt.Sprintf("%d PCs, digest %s", o.PCs, o.Digest) }

func digest(pcs []string, violated []bool, tests []string) output {
	h := sha256.New()
	for i, pc := range pcs {
		io.WriteString(h, pc)
		if violated[i] {
			io.WriteString(h, "\t!assert")
		}
		io.WriteString(h, "\n")
	}
	io.WriteString(h, "--tests--\n")
	for _, t := range tests {
		io.WriteString(h, t+"\n")
	}
	return output{PCs: len(pcs), Digest: hex.EncodeToString(h.Sum(nil))[:16]}
}

// facadeOutput digests a public-API result; tests is nil for ops that do
// not generate tests, which digest like ops that generated none.
func facadeOutput(paths []dise.PathInfo, tests []dise.TestCase) output {
	pcs := make([]string, len(paths))
	violated := make([]bool, len(paths))
	for i, p := range paths {
		pcs[i], violated[i] = p.PathCondition, p.AssertViolated
	}
	calls := make([]string, len(tests))
	for i, t := range tests {
		calls[i] = t.Call
	}
	return digest(pcs, violated, calls)
}

// engineOutput digests an internal summary the same way facadeOutput
// digests the public result it becomes.
func engineOutput(paths []symexec.Path, tests []testgen.TestCase) output {
	pcs := make([]string, len(paths))
	violated := make([]bool, len(paths))
	for i, p := range paths {
		pcs[i], violated[i] = p.PCString, p.Err
	}
	calls := make([]string, len(tests))
	for i, t := range tests {
		calls[i] = t.Call
	}
	return digest(pcs, violated, calls)
}

// coldOutput analyzes one version pair through internal/dise with no cache,
// session or shared state: the reference the randcold and dised outputs
// must match byte for byte.
func coldOutput(base, mod, proc string) (output, error) {
	bp, err := parser.Parse(base)
	if err != nil {
		return output{}, err
	}
	mp, err := parser.Parse(mod)
	if err != nil {
		return output{}, err
	}
	res, err := idise.Analyze(bp, mp, proc, symexec.Config{})
	if err != nil {
		return output{}, err
	}
	return engineOutput(res.Summary.Paths, nil), nil
}

// inputDigest identifies an op's input: the source texts it analyzes.
func inputDigest(srcs ...string) string {
	h := sha256.New()
	for _, s := range srcs {
		io.WriteString(h, s)
		io.WriteString(h, "\x00")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenOp is one expected op output. In is the digest of the op's input,
// so that inputs which drifted (a changed program generator or artifact)
// are told apart from wrong outputs.
type goldenOp struct {
	ID string `json:"id"`
	In string `json:"in"`
	output
}

// goldenFile is the on-disk form of one workload's expected outputs.
type goldenFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Ops      []goldenOp `json:"ops"`
}

// golden checks ops against the expected outputs, remembering the first
// op that differs and the first whose input drifted.
type golden struct {
	ops        []goldenOp
	firstDiff  string
	drifted    int
	firstDrift string
}

// loadGolden returns the expected outputs of a workload, or an empty
// checker when the workload has no golden file.
func loadGolden(workload string) (*golden, error) {
	buf, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return &golden{}, nil
	}
	if err != nil {
		return nil, err
	}
	var f goldenFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("golden %s: %w", workload, err)
	}
	return &golden{ops: f.Ops}, nil
}

// check compares op i (id, input digest in) with its expected output; ops
// beyond the golden file pass unchecked. An op whose input is not the one
// the golden file recorded is input drift, not a wrong output: it is
// counted and left unchecked (randcold's cold re-runs still check it).
func (g *golden) check(i int, id, in string, got output) {
	if i >= len(g.ops) {
		return
	}
	want := g.ops[i]
	if want.ID != id || want.In != in {
		g.drifted++
		if g.firstDrift == "" {
			g.firstDrift = fmt.Sprintf("%s (input %s), golden %s (input %s)", id, in, want.ID, want.In)
		}
		return
	}
	if g.firstDiff == "" && want.output != got {
		g.firstDiff = fmt.Sprintf("first op differing from golden: %s: got %v, want %v", id, got, want.output)
	}
}

// report files the outcome: a wrong output is a problem, drift a note.
func (g *golden) report(r *result) {
	if g.firstDiff != "" {
		r.problem("%s", g.firstDiff)
	}
	if g.drifted > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("input drift: %d ops have other inputs than the golden file records, first %s; their outputs were not compared (rewrite with disebench golden)", g.drifted, g.firstDrift))
	}
}

// runGolden implements "disebench golden DIR": it recomputes the expected
// outputs of the default seed through the public API and writes one file
// per workload. Run it only when a change is meant to alter outputs.
func runGolden(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: disebench golden DIR")
		return 2
	}
	dir := args[0]
	files, err := computeGolden()
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	for _, f := range files {
		if err != nil {
			break
		}
		path := filepath.Join(dir, f.Workload+".json")
		if err = os.WriteFile(path, marshalGolden(f), 0o644); err == nil {
			fmt.Fprintf(stdout, "wrote %s (%d ops)\n", path, len(f.Ops))
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "disebench golden:", err)
		return 1
	}
	return 0
}

func computeGolden() ([]goldenFile, error) {
	ctx := context.Background()
	pairwise := goldenFile{Workload: "pairwise", Seed: defaultSeed}
	chainF := goldenFile{Workload: "chain", Seed: defaultSeed}
	for _, c := range artifactChains() {
		a := dise.NewAnalyzer()
		sess, err := a.NewSession(ctx, dise.SessionRequest{InitialSrc: c.versions[0], Proc: c.proc})
		if err != nil {
			return nil, fmt.Errorf("%s seed: %w", c.name, err)
		}
		for i := 1; i < len(c.versions); i++ {
			res, err := a.Analyze(ctx, dise.Request{BaseSrc: c.versions[0], ModSrc: c.versions[i], Proc: c.proc})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.opID(i), err)
			}
			tests, err := res.Tests()
			if err != nil {
				return nil, fmt.Errorf("%s tests: %w", c.opID(i), err)
			}
			in := inputDigest(c.versions[0], c.versions[i])
			pairwise.Ops = append(pairwise.Ops, goldenOp{ID: c.opID(i), In: in, output: facadeOutput(res.Paths, tests)})
			step, err := sess.Advance(ctx, c.versions[i])
			if err != nil {
				return nil, fmt.Errorf("%s advance: %w", c.opID(i), err)
			}
			in = inputDigest(c.versions[i-1], c.versions[i])
			chainF.Ops = append(chainF.Ops, goldenOp{ID: c.opID(i), In: in, output: facadeOutput(step.Paths, nil)})
		}
	}
	pool, err := loadPool()
	if err != nil {
		return nil, err
	}
	rand := goldenFile{Workload: "randcold", Seed: defaultSeed}
	a := dise.NewAnalyzer()
	src := pool.stream(defaultSeed)
	for i := 0; i < goldenRandOps; i++ {
		p, ok := src.pair()
		if !ok {
			return nil, fmt.Errorf("the input pool is spent after %d pairs", i)
		}
		res, err := a.Analyze(ctx, dise.Request{BaseSrc: p.base, ModSrc: p.mod, Proc: "p"})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", randOpID(i, p), err)
		}
		in := inputDigest(p.base, p.mod)
		rand.Ops = append(rand.Ops, goldenOp{ID: randOpID(i, p), In: in, output: facadeOutput(res.Paths, nil)})
	}
	return []goldenFile{pairwise, chainF, rand}, nil
}

// marshalGolden writes one op per line, so a changed output shows up as a
// one-line diff.
func marshalGolden(f goldenFile) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "{\"workload\": %q, \"seed\": %d, \"ops\": [\n", f.Workload, f.Seed)
	for i, op := range f.Ops {
		line, _ := json.Marshal(op) // a struct of strings and ints always marshals
		b.Write(line)
		if i < len(f.Ops)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("]}\n")
	return []byte(b.String())
}

// randOpID names randcold's op i by its position and its pair's generator
// seed.
func randOpID(i int, p pair) string { return fmt.Sprintf("r%d/g%d", i, p.gen) }
