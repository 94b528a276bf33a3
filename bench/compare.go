package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest run pairs a gain may be claimed on.
const minPairs = 10

// runCompare implements "disebench compare A/*.json B/*.json": the files of
// the first directory are the parent's runs, those of the second the
// change's, paired in name order (run them alternately). For every workload
// and end-to-end metric it gives one verdict:
//
//   - unresolved: either side's quartile spread is wider than the metric's
//     bound, unless every change run beats every parent run;
//   - regression: the change's median is worse than the parent's by more
//     than the bound;
//   - gain: the change wins at least nine tenths of at least ten pairs and
//     the medians differ by more than the parent's quartile spread;
//   - otherwise no change.
//
// It exits 1 when any metric regresses.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("disebench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json with the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sides, err := splitSides(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "disebench compare:", err)
		return 2
	}
	var spec benchmarkSpec
	buf, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(buf, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "disebench compare: reading bounds:", err)
		return 2
	}
	// runs[s][workload] lists side s's untraced runs of workload in file
	// order; a file holds one workload or all of them.
	var runs [2]map[string][]*result
	for s, files := range sides {
		runs[s] = map[string][]*result{}
		for _, f := range files {
			rs, err := loadResults(f)
			if err != nil {
				fmt.Fprintln(stderr, "disebench compare:", err)
				return 2
			}
			for _, r := range rs {
				runs[s][r.Workload] = append(runs[s][r.Workload], r)
			}
		}
	}
	fmt.Fprintf(stdout, "parent %s (%d files) vs change %s (%d files)\n",
		filepath.Dir(sides[0][0]), len(sides[0]), filepath.Dir(sides[1][0]), len(sides[1]))

	regressed := false
	for _, wl := range workloads {
		pairs := min(len(runs[0][wl]), len(runs[1][wl]))
		if pairs == 0 {
			continue
		}
		var cells []string
		for _, m := range spec.EndToEnd {
			a, b := values(runs[0][wl][:pairs], m.Name), values(runs[1][wl][:pairs], m.Name)
			v := judge(a, b, m.Better == "higher", m.Bound)
			regressed = regressed || v.verdict == "REGRESSION"
			cells = append(cells, fmt.Sprintf("%s %s (%+.1f%%, wins %d/%d, parent %.4g [%.4g..%.4g], change %.4g [%.4g..%.4g])",
				m.Name, v.verdict, v.changePct, v.wins, pairs, v.a[1], v.a[0], v.a[2], v.b[1], v.b[0], v.b[2]))
		}
		fmt.Fprintf(stdout, "%-9s %d pairs: %s\n", wl, pairs, strings.Join(cells, "; "))
	}
	if regressed {
		return 1
	}
	return 0
}

// splitSides groups the result files by directory: exactly two.
func splitSides(files []string) ([2][]string, error) {
	var sides [2][]string
	if len(files) == 0 {
		return sides, fmt.Errorf("usage: disebench compare [-benchmark FILE] A/*.json B/*.json")
	}
	dirA := filepath.Dir(files[0])
	for _, f := range files {
		if filepath.Dir(f) == dirA {
			sides[0] = append(sides[0], f)
		} else {
			sides[1] = append(sides[1], f)
		}
	}
	if len(sides[1]) == 0 {
		return sides, fmt.Errorf("all files are in %s; give the parent's runs and the change's runs in two directories", dirA)
	}
	for _, f := range sides[1] {
		if filepath.Dir(f) != filepath.Dir(sides[1][0]) {
			return sides, fmt.Errorf("result files come from more than two directories")
		}
	}
	sort.Strings(sides[0])
	sort.Strings(sides[1])
	return sides, nil
}

// loadResults returns the untraced runs of a -json file.
func loadResults(path string) ([]*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []*result
	for _, r := range f.Runs {
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, nil
}

func values(runs []*result, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric]
	}
	return out
}

// judgement is the verdict on one metric of one workload.
type judgement struct {
	verdict   string
	changePct float64    // change median vs parent median
	wins      int        // pairs the change won
	a, b      [3]float64 // quartiles of parent and change
}

func judge(a, b []float64, higherIsBetter bool, bound float64) judgement {
	j := judgement{a: quartiles(a), b: quartiles(b)}
	better := func(x, y float64) bool { // x better than y
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	for i := range a {
		if better(b[i], a[i]) {
			j.wins++
		}
	}
	medA, medB := j.a[1], j.b[1]
	j.changePct = 100 * ratio(medB-medA, medA)
	spreadA := ratio(j.a[2]-j.a[0], medA)
	spreadB := ratio(j.b[2]-j.b[0], medB)
	worse := ratio(medA-medB, medA)
	if !higherIsBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case (spreadA > bound || spreadB > bound) && !allBetter:
		j.verdict = "unresolved"
	case worse > bound:
		j.verdict = "REGRESSION"
	case len(a) >= minPairs && float64(j.wins) >= math.Ceil(0.9*float64(len(a))) &&
		math.Abs(medB-medA) > j.a[2]-j.a[0]:
		j.verdict = "gain"
	default:
		j.verdict = "no change"
	}
	return j
}

// quartiles are the first, second and third quartiles by the exclusive
// method (Python's statistics.quantiles(values, n=4) default).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		k := i * m / 4
		k = max(1, min(k, n-1))
		delta := float64(i*m - k*4)
		q[i-1] = (s[k-1]*(4-delta) + s[k]*delta) / 4
	}
	return q
}
