package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"dise"
)

// metricDef names one reported metric and its unit. The names and units
// match BENCHMARK.json; README.md has the glossary and, for every per-layer
// metric, the end-to-end metric and workload it should move.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees that repeat closely
// enough between runs to carry a regression bound: the set-up time, and the
// work per op that every result reports in its Stats (the paper's states
// explored and solver calls). An untraced run reports all of them for every
// workload. The op latencies and throughput repeat only to 7-20% on the
// reference host, so they are per-layer metrics (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"states_per_op", "count/op"},
	{"solver_calls_per_op", "count/op"},
}

// perLayer decompose the end-to-end numbers. A traced run reports all of
// them for every workload; a layer the workload never enters reads 0.
// Unless the unit says otherwise, counts and times are means per traced op.
var perLayer = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"seed_ms", "ms"},
	{"heap_live_mb", "MB"},
	{"lang.calls", "count/op"},
	{"lang.ms", "ms"},
	{"lang.kb_per_s", "KB/s"},
	{"cfg.calls", "count/op"},
	{"cfg.ms", "ms"},
	{"cfg.nodes", "count/op"},
	{"diff.ms", "ms"},
	{"diff.changed_nodes", "count/op"},
	{"dise.affected_ms", "ms"},
	{"dise.affected_nodes", "count/op"},
	{"dise.pruned_states", "count/op"},
	{"dise.prune_ratio", "ratio"},
	{"facade.parse_cache_hit_ratio", "ratio"},
	{"facade.prefix_cache_hit_ratio", "ratio"},
	{"facade.residual_ms", "ms"},
	{"symexec.explore_ms", "ms"},
	{"symexec.states", "count/op"},
	{"symexec.states_per_s", "1/s"},
	{"symexec.infeasible", "count/op"},
	{"constraint.checks", "count/op"},
	{"constraint.ms", "ms"},
	{"constraint.full_solves", "count/op"},
	{"constraint.full_solve_ms", "ms"},
	{"constraint.cache_hits", "count/op"},
	{"constraint.model_reuses", "count/op"},
	{"constraint.box_conflicts", "count/op"},
	{"constraint.frame_memo_hits", "count/op"},
	{"constraint.reused_ms", "ms"},
	{"constraint.reuse_ratio", "ratio"},
	{"constraint.search_nodes", "count/op"},
	{"constraint.asserts", "count/op"},
	{"memo.rekey_ms", "ms"},
	{"memo.enforce_ms", "ms"},
	{"memo.hits", "count/op"},
	{"memo.replay_ratio", "ratio"},
	{"memo.nodes_kept", "count/op"},
	{"memo.nodes_invalidated", "count/op"},
	{"memo.trie_nodes", "count"},
	{"memo.trie_mb", "MB"},
	{"testgen.ms", "ms"},
	{"testgen.rebuild_ms", "ms"},
	{"testgen.tests", "count/op"},
	{"testgen.tests_per_s", "1/s"},
	{"runtime.allocs_per_op", "count/op"},
	{"runtime.kb_per_op", "KB/op"},
	{"runtime.gc_cycles", "count/kop"},
	{"runtime.gc_cpu_pct", "%"},
	{"service.client_wait_ms", "ms"},
	{"service.wire_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.queue_depth_max", "count"},
	{"service.rejected", "count"},
	{"service.parse_cache_hit_ratio", "ratio"},
	{"service.prefix_cache_hit_ratio", "ratio"},
	{"service.memo_replay_ratio", "ratio"},
	{"service.heap_inuse_mb", "MB"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.in_flight_max", "count"},
	{"trace.overhead_pct", "%"},
}

// result is the outcome of one workload run.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Ops       int                `json:"ops"`
	Metrics   map[string]float64 `json:"metrics"`
	// Problems lists every wrong output found (first few per kind).
	Problems []string `json:"problems,omitempty"`
	// Notes carries human-readable findings, such as the top self-time
	// layers of a traced run.
	Notes []string `json:"notes,omitempty"`
}

func newResult(workload string, o *options) *result {
	return &result{Workload: workload, Seed: o.seed, Trace: o.trace, Correct: true, Metrics: map[string]float64{}}
}

// problem records a wrong output; the run then reports correct=false.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	const keep = 20
	if len(r.Problems) < keep {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// reported returns the metric set this run prints: end-to-end untraced,
// per-layer traced.
func (r *result) reported() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// metricValue is one metric in the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize folds the workload results into the final JSON line. A single
// workload keeps the bare metric names; several prefix each name with its
// workload.
func summarize(results []*result) summaryLine {
	out := summaryLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, d := range r.reported() {
			name := d.name
			if len(results) > 1 {
				name = r.Workload + "." + d.name
			}
			out.Metrics[name] = metricValue{Value: finite(r.Metrics[d.name]), Unit: d.unit}
		}
	}
	return out
}

// printTable writes one line per metric, every measured metric included,
// then the run's problems and notes.
func printTable(w io.Writer, r *result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): correct=%v attempted=%d failed=%d ops=%d\n",
		r.Workload, mode, r.Seed, r.Correct, r.Attempted, r.Failed, r.Ops)
	for _, d := range r.reported() {
		fmt.Fprintf(w, "%-10s %-32s %14.4f %s\n", r.Workload, d.name, finite(r.Metrics[d.name]), d.unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%-10s WRONG: %s\n", r.Workload, p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%-10s note: %s\n", r.Workload, n)
	}
}

func writeSummary(w io.Writer, results []*result) error {
	buf, err := json.Marshal(summarize(results))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// work sums the Stats of a run's ops, which the end-to-end work metrics
// are means of.
type work struct{ ops, states, calls int }

func (w *work) add(st dise.Stats) {
	w.ops++
	w.states += st.StatesExplored
	w.calls += st.SolverCalls
}

func (w *work) report(r *result) {
	r.Metrics["states_per_op"] = ratio(float64(w.states), float64(w.ops))
	r.Metrics["solver_calls_per_op"] = ratio(float64(w.calls), float64(w.ops))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
