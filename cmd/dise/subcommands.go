package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dise"
)

// subcommands maps the first argument to a mode with its own flag set; any
// other first argument selects the pairwise/chain flags of main.
var subcommands = map[string]func(ctx context.Context, args []string){
	"exec":   runExec,
	"cfg":    runCFG,
	"tables": runTables,
}

// readSource reads the program at path and resolves the procedure under
// analysis: proc, or the program's only procedure when proc is empty.
func readSource(path, proc string) (src, procName string) {
	b, err := os.ReadFile(path)
	exitOn(err)
	if proc == "" {
		proc = inferProc(string(b))
	}
	return string(b), proc
}

// runExec runs full symbolic execution and prints its path conditions, or
// with -tree the symbolic execution tree.
func runExec(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("dise exec", flag.ExitOnError)
	srcPath := fs.String("src", "", "path to the program source")
	proc := fs.String("proc", "", "procedure to execute (default: the only procedure)")
	depth := fs.Int("depth", 0, "depth bound (0 = default)")
	tree := fs.Bool("tree", false, "print the symbolic execution tree instead of the summary")
	tests := fs.Bool("tests", false, "also render test inputs for the path conditions")
	fs.Parse(args)

	if *srcPath == "" {
		fmt.Fprintln(os.Stderr, "usage: dise exec -src FILE [-proc NAME] [-tree] [-tests] [-depth N]")
		os.Exit(2)
	}
	src, procName := readSource(*srcPath, *proc)
	a := dise.NewAnalyzer(dise.WithDepthBound(*depth))

	if *tree {
		rendered, err := a.ExecutionTree(ctx, src, procName)
		exitOn(err)
		fmt.Print(rendered)
		return
	}

	sum, err := a.Execute(ctx, src, procName)
	exitOn(err)
	fmt.Printf("procedure:       %s\n", procName)
	fmt.Printf("states explored: %d\n", sum.Stats.StatesExplored)
	fmt.Printf("solver calls:    %d\n", sum.Stats.SolverCalls)
	fmt.Printf("time:            %dms\n", sum.Stats.TimeMilliseconds)
	printPaths("path conditions", sum.Paths)
	if *tests {
		printTests(sum.Tests())
	}
}

// runCFG prints a procedure's CFG in Graphviz DOT; with -base, the modified
// version's CFG with the affected nodes highlighted.
func runCFG(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("dise cfg", flag.ExitOnError)
	srcPath := fs.String("src", "", "path to the program source (the modified version when -base is set)")
	basePath := fs.String("base", "", "optional path to the base version: highlight affected nodes")
	proc := fs.String("proc", "", "procedure (default: the only procedure)")
	fs.Parse(args)

	if *srcPath == "" {
		fmt.Fprintln(os.Stderr, "usage: dise cfg -src FILE [-base OLD] [-proc NAME]")
		os.Exit(2)
	}
	src, procName := readSource(*srcPath, *proc)
	a := dise.NewAnalyzer()
	var (
		dot string
		err error
	)
	if *basePath == "" {
		dot, err = a.CFGDot(src, procName)
	} else {
		base, readErr := os.ReadFile(*basePath)
		exitOn(readErr)
		dot, err = a.AffectedCFGDot(ctx, string(base), src, procName)
	}
	exitOn(err)
	fmt.Print(dot)
}

// runTables regenerates Tables 2 and 3 of the paper for one artifact, or for
// every artifact when -artifact is empty.
func runTables(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("dise tables", flag.ExitOnError)
	artifact := fs.String("artifact", "", "artifact to evaluate: ASW, WBS or OAE (default: all)")
	depth := fs.Int("depth", 0, "depth bound (0 = default)")
	fs.Parse(args)

	names := dise.EvaluationArtifacts()
	if *artifact != "" {
		names = []string{*artifact}
	}
	a := dise.NewAnalyzer(dise.WithDepthBound(*depth))
	for _, name := range names {
		t2, t3, err := a.EvaluationTables(ctx, name)
		exitOn(err)
		fmt.Println(t2)
		fmt.Println(t3)
	}
}
