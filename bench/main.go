// Command disebench measures the DiSE pipeline end to end and layer by
// layer. One command runs four workloads and prints every metric by name
// and unit, then a JSON summary as its last line:
//
//	disebench [-workload all|pairwise|chain|randcold|dised] [-seed N]
//	          [-seconds S] [-trace 0|1] [-dised PATH] [-work DIR]
//	          [-json FILE] [-quick]
//	disebench compare [-benchmark BENCHMARK.json] A/*.json B/*.json
//	disebench golden DIR
//	disebench inputs FILE
//
// An untraced run (-trace 0) reports the end-to-end metrics, measured
// through the public API (dise.Analyzer, Session, Result.Tests) and the
// real cmd/dised binary. A traced run (-trace 1) reports the per-layer
// metrics: the public API's op latencies, and every op repeated through a
// pipeline that calls each layer's functions itself and times them. Every
// op's output is checked; a wrong output makes the command exit 1.
// bench/run.sh builds the binary and the daemon and runs it; README.md
// documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workloads are the workload names in run order.
var workloads = []string{"pairwise", "chain", "randcold", "dised"}

// defaultSeconds is how long each workload measures by default: the
// run_seconds of BENCHMARK.json.
const defaultSeconds = 18

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	dised    string
	work     string
	jsonOut  string
}

// runLength is how long one workload measures.
func (o *options) runLength() time.Duration {
	if o.quick {
		return 300 * time.Millisecond
	}
	return time.Duration(o.seconds * float64(time.Second))
}

// setups is how many times a workload sets up; setup_s is their median.
func (o *options) setups() int {
	if o.quick {
		return 1
	}
	return 4
}

// spanPath is where a traced run writes a workload's spans.
func (o *options) spanPath(workload string) string {
	return filepath.Join(o.work, "spans-"+workload+".jsonl")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "golden":
			return runGolden(args[1:], stdout, stderr)
		case "inputs":
			return runInputs(args[1:], stdout, stderr)
		}
	}
	o := &options{}
	fs := flag.NewFlagSet("disebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, pairwise, chain, randcold or dised")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of the random programs and of the dised schedule")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long each workload measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "tiny runs (one set-up, one pass) for tests")
	fs.StringVar(&o.dised, "dised", "", "path of a built cmd/dised binary (dised workload)")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for daemon port files and span files")
	fs.StringVar(&o.jsonOut, "json", "", "also write the full results to this file (input of disebench compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "disebench: bad arguments; -trace takes 0 or 1, -seconds must be positive")
		return 2
	}
	o.trace = *trace == 1
	names := workloads
	if o.workload != "all" {
		names = []string{o.workload}
	}

	var results []*result
	for _, name := range names {
		r, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(stderr, "disebench: %s: %v\n", name, err)
			return 1
		}
		printTable(stdout, r)
		results = append(results, r)
	}
	if o.jsonOut != "" {
		if err := writeResults(o.jsonOut, results); err != nil {
			fmt.Fprintln(stderr, "disebench:", err)
			return 1
		}
	}
	if err := writeSummary(stdout, results); err != nil {
		fmt.Fprintln(stderr, "disebench:", err)
		return 1
	}
	for _, r := range results {
		if !r.Correct || r.Failed > 0 {
			return 1
		}
	}
	return 0
}

func runWorkload(name string, o *options) (*result, error) {
	switch name {
	case "pairwise":
		return runInproc(name, &pairwise{chains: artifactChains()}, o)
	case "chain":
		return runInproc(name, &chainW{chains: artifactChains()}, o)
	case "randcold":
		pool, err := loadPool()
		if err != nil {
			return nil, err
		}
		return runInproc(name, newRandcold(pool, o.seed, o.quick), o)
	case "dised":
		return runDised(o)
	}
	return nil, fmt.Errorf("unknown workload (want all, pairwise, chain, randcold or dised)")
}

// resultsFile is the -json output.
type resultsFile struct {
	Runs []*result `json:"runs"`
}

func writeResults(path string, results []*result) error {
	for _, r := range results {
		for name, v := range r.Metrics {
			r.Metrics[name] = finite(v)
		}
	}
	buf, err := json.MarshalIndent(resultsFile{Runs: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
