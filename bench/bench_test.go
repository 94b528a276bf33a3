package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDised compiles the daemon into a temporary directory, as cmd/dised's
// own tests do.
func buildDised(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "dised")
	if out, err := exec.Command("go", "build", "-o", bin, "dise/cmd/dised").CombinedOutput(); err != nil {
		t.Fatalf("go build dised: %v\n%s", err, out)
	}
	return bin
}

// spec is BENCHMARK.json as the tests read it.
type spec struct {
	RunSeconds int                           `json:"run_seconds"`
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestQuickRun runs all four workloads in -quick mode, untraced and traced,
// and requires every output check to pass and every metric BENCHMARK.json
// names to be printed, in the table and in the final JSON line, with its
// unit.
func TestQuickRun(t *testing.T) {
	s := readSpec(t)
	dised := buildDised(t)
	for _, tc := range []struct {
		trace   string
		metrics []struct{ Name, Unit string }
	}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "-trace", tc.trace, "-dised", dised, "-work", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", tc.trace, code, stdout.String(), stderr.String())
		}
		out := stdout.String()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var sum summaryLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("trace %s: last line is not the JSON summary: %v", tc.trace, err)
		}
		if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
			t.Fatalf("trace %s: correct=%v failed=%d attempted=%d\n%s", tc.trace, sum.Correct, sum.Failed, sum.Attempted, out)
		}
		for _, wl := range workloads {
			for _, m := range tc.metrics {
				if v, ok := sum.Metrics[wl+"."+m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("trace %s: summary lacks %s.%s in %s (got %+v)", tc.trace, wl, m.Name, m.Unit, v)
				}
				row := fmt.Sprintf("%-10s %-32s", wl, m.Name)
				if !strings.Contains(out, row) || !strings.Contains(out, m.Unit+"\n") {
					t.Errorf("trace %s: table lacks a %s row with unit %s", tc.trace, row, m.Unit)
				}
			}
		}
	}
}

// TestSpecMatchesMetricTable keeps BENCHMARK.json and the metric tables the
// binary prints, and its default run length, in step.
func TestSpecMatchesMetricTable(t *testing.T) {
	s := readSpec(t)
	if s.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, -seconds default %d", s.RunSeconds, defaultSeconds)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the binary %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, binary %s %s", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// TestGoldenMatchesEvaluationTables cross-checks the pairwise golden path
// condition counts against the per-version DiSE counts pinned by
// internal/evaluation's tests (the paper's Table 2 re-creation).
func TestGoldenMatchesEvaluationTables(t *testing.T) {
	pinned := map[string]int{
		"ASW/v1": 0, "ASW/v2": 0, "ASW/v3": 3, "ASW/v4": 12, "ASW/v5": 1, "ASW/v6": 144, "ASW/v7": 3,
		"ASW/v8": 1, "ASW/v9": 3, "ASW/v10": 2, "ASW/v11": 144, "ASW/v12": 24, "ASW/v13": 48, "ASW/v14": 3, "ASW/v15": 144,
		"WBS/v1": 24, "WBS/v2": 24, "WBS/v3": 24, "WBS/v4": 1, "WBS/v5": 24, "WBS/v6": 24, "WBS/v7": 12, "WBS/v8": 0,
		"WBS/v9": 24, "WBS/v10": 24, "WBS/v11": 12, "WBS/v12": 24, "WBS/v13": 24, "WBS/v14": 24, "WBS/v15": 24, "WBS/v16": 24,
		"OAE/v1": 2304, "OAE/v2": 1, "OAE/v3": 2304, "OAE/v4": 1, "OAE/v5": 192, "OAE/v6": 6,
		"OAE/v7": 2304, "OAE/v8": 768, "OAE/v9": 2304,
	}
	g, err := loadGolden("pairwise")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.ops) != len(pinned) {
		t.Fatalf("golden pairwise has %d ops, want %d", len(g.ops), len(pinned))
	}
	for _, op := range g.ops {
		if want, ok := pinned[op.ID]; !ok || op.PCs != want {
			t.Errorf("golden %s: %d PCs, evaluation tables pin %d", op.ID, op.PCs, want)
		}
	}
}

// TestCompareVerdicts runs compare on synthetic runs, one workload per file
// as single-workload runs write them: an A/A pair must show no change, a 50%
// latency rise a regression, a consistent 30% drop a gain, on every
// workload's row.
func TestCompareVerdicts(t *testing.T) {
	root := t.TempDir()
	write := func(dir string, i int, p50 float64) {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, wl := range []string{"pairwise", "chain"} {
			r := &result{Workload: wl, Correct: true, Metrics: map[string]float64{
				"setup_s": 1, "op_p50_ms": p50, "op_p90_ms": 10, "ops_per_s": 100,
			}}
			if err := writeResults(filepath.Join(root, dir, fmt.Sprintf("%s-%02d.json", wl, i)), []*result{r}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		jitter := 1 + 0.01*float64(i%3)
		write("parent", i, 2*jitter)
		write("same", i, 2*(1+0.01*float64((i+1)%3)))
		write("slower", i, 3*jitter)
		write("faster", i, 1.4*jitter)
	}
	specPath := filepath.Join(root, "BENCHMARK.json")
	specJSON := `{"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ side, want string }{{"same", "no change"}, {"slower", "REGRESSION"}, {"faster", "gain"}} {
		side, want := tc.side, tc.want
		files, _ := filepath.Glob(filepath.Join(root, "parent", "*.json"))
		more, _ := filepath.Glob(filepath.Join(root, side, "*.json"))
		var stdout, stderr bytes.Buffer
		code := runCompare(append([]string{"-benchmark", specPath}, append(files, more...)...), &stdout, &stderr)
		for _, wl := range []string{"pairwise", "chain"} {
			row := fmt.Sprintf("%-9s 10 pairs: op_p50_ms %s", wl, want)
			if !strings.Contains(stdout.String(), row) {
				t.Errorf("%s: want row %q, got:\n%s%s", side, row, stdout.String(), stderr.String())
			}
		}
		if (want == "REGRESSION") != (code == 1) {
			t.Errorf("%s: exit %d", side, code)
		}
	}
}

// TestQuartilesMatchPython pins the exclusive-method quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}
