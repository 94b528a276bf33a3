// Command dise runs Directed Incremental Symbolic Execution on two versions
// of a procedure and prints the affected locations, the affected path
// conditions, and (optionally) regression tests. Its subcommands run full
// symbolic execution, render CFGs and regenerate the paper's evaluation
// tables. Ctrl-C cancels every mode cleanly through the Analyzer's context
// plumbing.
//
// Usage:
//
//	dise -base old.mini -mod new.mini -proc update [-tests] [-depth N] [-json]
//	     [-timeout D] [-solver interval|interval-noreuse|bitvec|smtlib]
//	     [-smt-solver PATH] [-merge-bound N]
//
// -solver smtlib talks SMT-LIB2 to an external solver subprocess (z3, cvc5,
// ... — discovered on PATH or pinned with -smt-solver), degrading to the
// in-process interval fallback on any solver failure. See the README's
// "Solver resilience" section.
//
// Exploration is depth-first, one engine and one solver context per
// analysis.
//
// -merge-bound enables bounded state merging (0 = off, -1 = unbounded,
// >= 2 = fuse at most N sibling states per join). Merged runs report
// verdict-equivalent but coarser path sets — see the README's "State
// merging" section. Not available in chain mode.
//
// -timeout bounds the whole run (pairwise or chain): on expiry the analysis
// stops at the next cancellation point and the command reports the Cancelled
// kind — as "dise: cancelled: ..." on stderr in text mode, as an
// {"error":{"code":"cancelled",...}} envelope on stdout with -json.
//
// Chain mode drives a version-chain session (memoized execution-tree reuse,
// see the "Version-chain sessions" section of the README) over an evolution
// sequence, printing per-step timing and memo statistics:
//
//	dise -chain v1.mini,v2.mini,v3.mini [-proc update] [-json]
//	dise -artifact asw|wbs|oae [-json]
//
// Subcommands:
//
//	dise exec -src prog.mini [-proc update] [-tree] [-tests] [-depth N]
//	dise cfg -src new.mini [-base old.mini] [-proc update]
//	dise tables [-artifact asw|wbs|oae] [-depth N]
//
// exec runs full (traditional) symbolic execution — the control technique
// of the paper's evaluation — and prints its path conditions, or with -tree
// the symbolic execution tree of Fig. 1. cfg prints a procedure's control
// flow graph in Graphviz DOT (Fig. 2(b)); with -base, the modified version's
// CFG with affected conditionals in light red and affected writes in light
// blue. tables regenerates Tables 2 and 3 on the built-in artifacts (all
// three by default).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"dise"
	"dise/internal/artifacts"
	"dise/internal/symexec"
)

// jsonResult is the machine-readable output of -json.
type jsonResult struct {
	Procedure                string          `json:"procedure"`
	ChangedNodes             int             `json:"changed_nodes"`
	AffectedConditionalLines []int           `json:"affected_conditional_lines"`
	AffectedWriteLines       []int           `json:"affected_write_lines"`
	Stats                    dise.Stats      `json:"stats"`
	Paths                    []dise.PathInfo `json:"paths"`
	Tests                    []dise.TestCase `json:"tests,omitempty"`
}

func main() {
	ctx0, stop0 := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop0()
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			sub(ctx0, os.Args[2:])
			return
		}
	}

	basePath := flag.String("base", "", "path to the base (original) version source")
	modPath := flag.String("mod", "", "path to the modified version source")
	proc := flag.String("proc", "", "procedure under analysis (default: the only procedure)")
	depth := flag.Int("depth", 0, "symbolic execution depth bound (0 = default)")
	tests := flag.Bool("tests", false, "also render test inputs for the affected path conditions")
	asJSON := flag.Bool("json", false, "emit the result as machine-readable JSON")
	solverName := flag.String("solver", "", fmt.Sprintf("constraint-solving backend %v (default %q)", dise.SolverBackends(), "interval"))
	smtSolver := flag.String("smt-solver", "", "path to an SMT-LIB2 solver binary for the smtlib backend (default: discover z3/cvc5/... on PATH; absent binary degrades to the in-process fallback)")
	mergeBound := flag.Int("merge-bound", 0, "bounded state merging at CFG joins: 0 = off, -1 = unbounded, >= 2 = fuse at most N siblings per merge (incompatible with -chain/-artifact)")
	chain := flag.String("chain", "", "comma-separated version files: run a version-chain session over them in order")
	artifact := flag.String("artifact", "", "run the built-in evolution chain of an artifact (asw, wbs or oae)")
	timeout := flag.Duration("timeout", 0, "abort the analysis after this long, reporting the Cancelled kind (0 = no timeout)")
	flag.Parse()

	// An unknown backend or an out-of-range merge bound is a flag error:
	// reject it before reading any source, with the exit code of every
	// other bad flag value.
	if *solverName != "" && !slices.Contains(dise.SolverBackends(), *solverName) {
		fmt.Fprintf(os.Stderr, "dise: %v: -solver %q is not a backend (have %v)\n",
			dise.ErrInvalidConfig, *solverName, dise.SolverBackends())
		os.Exit(2)
	}
	if err := symexec.CheckMergeBound(*mergeBound); err != nil {
		fmt.Fprintf(os.Stderr, "dise: %v: -merge-bound: %v\n", dise.ErrInvalidConfig, err)
		os.Exit(2)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx0, cancel = context.WithTimeout(ctx0, *timeout)
		defer cancel()
	}
	a := dise.NewAnalyzer(
		dise.WithDepthBound(*depth),
		dise.WithSolverBackend(*solverName),
		dise.WithSMTSolver(*smtSolver),
		dise.WithStateMerging(*mergeBound),
	)

	if *chain != "" || *artifact != "" {
		// Reject pairwise-only flags instead of silently ignoring them.
		if *basePath != "" || *modPath != "" {
			exitOn(fmt.Errorf("-base/-mod and -chain/-artifact are mutually exclusive"))
		}
		if *tests {
			exitOn(fmt.Errorf("-tests is not supported in chain mode"))
		}
		if *mergeBound != 0 {
			// Sessions would reject it anyway (InvalidConfig); fail with a
			// flag-level message instead of a session error.
			exitOn(fmt.Errorf("-merge-bound is not supported in chain mode: state merging is incompatible with memoized sessions"))
		}
		runChain(ctx0, a, chainConfig{chain: *chain, artifact: *artifact, proc: *proc, asJSON: *asJSON})
		return
	}

	if *basePath == "" || *modPath == "" {
		fmt.Fprintln(os.Stderr, "usage: dise -base OLD -mod NEW [-proc NAME] [-tests] [-depth N] [-json] [-solver NAME] [-smt-solver PATH] [-merge-bound N]")
		fmt.Fprintln(os.Stderr, "       dise -chain V1,V2,... | -artifact asw|wbs|oae  [-proc NAME] [-json]")
		fmt.Fprintln(os.Stderr, "       dise exec|cfg|tables -h")
		os.Exit(2)
	}
	baseSrc, err := os.ReadFile(*basePath)
	exitOn(err)
	modSrc, err := os.ReadFile(*modPath)
	exitOn(err)

	ctx := ctx0

	procName := *proc
	if procName == "" {
		procName = inferProc(string(modSrc))
	}

	res, err := a.Analyze(ctx, dise.Request{
		BaseSrc: string(baseSrc),
		ModSrc:  string(modSrc),
		Proc:    procName,
	})
	exitAnalysisOn(*asJSON, err)

	if *asJSON {
		var ts []dise.TestCase
		if *tests {
			ts, err = res.Tests()
			exitAnalysisOn(*asJSON, err)
		}
		out := resultJSON(procName, res)
		out.Tests = ts
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(out))
		return
	}

	fmt.Printf("procedure:            %s\n", procName)
	fmt.Printf("changed CFG nodes:    %d\n", res.ChangedNodes)
	fmt.Printf("affected conditionals (source lines): %v\n", res.AffectedConditionalLines)
	fmt.Printf("affected writes       (source lines): %v\n", res.AffectedWriteLines)
	fmt.Printf("states explored:      %d\n", res.Stats.StatesExplored)
	fmt.Printf("solver calls:         %d\n", res.Stats.SolverCalls)
	ss := res.Stats.Solver
	fmt.Printf("solver [%s]:    %d checks (%d sat / %d unsat / %d unknown), %d frames pushed, %d cache hits, %d model reuses\n",
		ss.Backend, ss.Checks, ss.Sat, ss.Unsat, ss.Unknown, ss.PushedFrames, ss.CacheHits, ss.ModelReuses)
	if ms := res.Stats.Merge; ms.Enabled {
		fmt.Printf("state merging:        bound %d · %d merges · %d states saved · %d ite nodes\n",
			ms.Bound, ms.Merges, ms.MergedStatesSaved, ms.IteNodes)
	}
	fmt.Printf("time:                 %dms\n", res.Stats.TimeMilliseconds)
	printPaths("affected path conditions", res.Paths)
	if *tests {
		// Solved after the report so a test-generation failure never eats
		// the analysis output.
		ts, err := res.Tests()
		exitAnalysisOn(false, err)
		printTests(ts)
	}
}

// printPaths lists path conditions under a counted heading, marking the
// paths that end in an assertion failure.
func printPaths(heading string, paths []dise.PathInfo) {
	fmt.Printf("%s: %d\n", heading, len(paths))
	for i, p := range paths {
		marker := ""
		if p.AssertViolated {
			marker = "  [ASSERTION VIOLATION]"
		}
		fmt.Printf("  PC%-3d %s%s\n", i+1, p.PathCondition, marker)
	}
}

// printTests lists generated test inputs as calls.
func printTests(ts []dise.TestCase) {
	fmt.Printf("test inputs: %d\n", len(ts))
	for _, tc := range ts {
		fmt.Printf("  %s\n", tc.Call)
	}
}

// resultJSON projects an analysis result onto the -json output shape.
func resultJSON(procName string, res *dise.Result) jsonResult {
	return jsonResult{
		Procedure:                procName,
		ChangedNodes:             res.ChangedNodes,
		AffectedConditionalLines: res.AffectedConditionalLines,
		AffectedWriteLines:       res.AffectedWriteLines,
		Stats:                    res.Stats,
		Paths:                    res.Paths,
	}
}

// chainConfig carries the mode flags of chain mode; the Analyzer flags are
// applied by main.
type chainConfig struct {
	chain    string
	artifact string
	proc     string
	asJSON   bool
}

// chainStep is the machine-readable record of one Session.Advance.
type chainStep struct {
	Version string `json:"version"`
	// AdvanceMilliseconds is the wall time of the whole step: diff, trie
	// rekeying, directed search and result assembly. Stats.TimeMilliseconds
	// inside covers the search alone.
	AdvanceMilliseconds int64 `json:"advance_ms"`
	jsonResult
}

// chainOutput is the -json envelope of chain mode.
type chainOutput struct {
	Procedure string      `json:"procedure"`
	Versions  int         `json:"versions"`
	Steps     []chainStep `json:"steps"`
}

// runChain drives a version-chain session on a over the given version files
// (or a built-in artifact's evolution chain), printing per-step timing and
// memo statistics.
func runChain(ctx context.Context, a *dise.Analyzer, cfg chainConfig) {
	var (
		names    []string
		sources  []string
		procName = cfg.proc
	)
	switch {
	case cfg.artifact != "" && cfg.chain != "":
		exitOn(fmt.Errorf("-chain and -artifact are mutually exclusive"))
	case cfg.artifact != "":
		art, ok := artifacts.ByName(cfg.artifact)
		if !ok {
			exitOn(fmt.Errorf("unknown artifact %q (have asw, wbs, oae)", cfg.artifact))
		}
		names, sources = []string{"base"}, []string{art.Base}
		for _, v := range art.Versions {
			names = append(names, v.Name)
			sources = append(sources, art.SourceFor(v))
		}
		if procName == "" {
			procName = art.Proc
		}
	default:
		files := strings.Split(cfg.chain, ",")
		if len(files) < 2 {
			exitOn(fmt.Errorf("-chain needs at least two version files, got %d", len(files)))
		}
		for _, f := range files {
			f = strings.TrimSpace(f)
			src, err := os.ReadFile(f)
			exitOn(err)
			names = append(names, f)
			sources = append(sources, string(src))
		}
	}

	if procName == "" {
		procName = inferProc(sources[0])
	}

	seedStart := time.Now()
	sess, err := a.NewSession(ctx, dise.SessionRequest{InitialSrc: sources[0], Proc: procName})
	exitAnalysisOn(cfg.asJSON, err)
	seedMs := time.Since(seedStart).Milliseconds()

	if !cfg.asJSON {
		fmt.Printf("procedure: %s · chain of %d versions (%d steps)\n", procName, len(sources), len(sources)-1)
		fmt.Printf("seeded session from %s in %dms (full exploration of the initial version)\n", names[0], seedMs)
	}

	out := chainOutput{Procedure: procName, Versions: len(sources)}
	for i := 1; i < len(sources); i++ {
		start := time.Now()
		res, err := sess.Advance(ctx, sources[i])
		exitAnalysisOn(cfg.asJSON, err)
		elapsed := time.Since(start).Milliseconds()
		m := res.Stats.Memo
		if cfg.asJSON {
			out.Steps = append(out.Steps, chainStep{
				Version:             names[i],
				AdvanceMilliseconds: elapsed,
				jsonResult:          resultJSON(procName, res),
			})
			continue
		}
		fmt.Printf("step %2d  %-8s %4dms  paths %4d  changed nodes %2d  solver checks %4d\n",
			m.Step, names[i], elapsed, len(res.Paths), res.ChangedNodes, res.Stats.Solver.Checks)
		fmt.Printf("         memo: %d hits · %d states replayed / %d live · trie %d nodes (%d kept, %d invalidated)\n",
			m.MemoHits, m.StatesReplayed, m.StatesExploredLive, m.TrieNodes, m.NodesKept, m.NodesInvalidated)
	}
	if cfg.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(out))
	}
}

// inferProc resolves the procedure under analysis when -proc is absent: the
// program must contain exactly one.
func inferProc(src string) string {
	prog, err := dise.ParseProgram(src)
	exitOn(err)
	procs := prog.Procedures()
	if len(procs) != 1 {
		exitOn(fmt.Errorf("-proc required: program has %d procedures %v", len(procs), procs))
	}
	return procs[0]
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dise:", err)
		os.Exit(1)
	}
}

// exitAnalysisOn reports an analysis failure by kind and exits. A classified
// *dise.Error (a -timeout expiry surfacing as Cancelled, a budget hitting
// BudgetExhausted, ...) keeps its machine-readable code: -json mode emits the
// same {"error":{code,message}} envelope the analysis service uses, on
// stdout, so scripted callers parse one shape for success and failure; text
// mode prints the error, whose message already leads with the kind.
func exitAnalysisOn(asJSON bool, err error) {
	if err == nil {
		return
	}
	code := "internal"
	if k := dise.KindOf(err); k != 0 {
		code = k.Code()
	}
	if asJSON {
		var out struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		out.Error.Code = code
		out.Error.Message = err.Error()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(out); encErr != nil {
			fmt.Fprintln(os.Stderr, "dise:", encErr)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "dise:", err)
	os.Exit(1)
}
