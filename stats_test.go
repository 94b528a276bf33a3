package dise

import (
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestStatsAdd pins the aggregation semantics of the facade stats hooks:
// counters sum, the backend/strategy echoes keep the first sample, the memo
// block counts enabled steps and tracks the largest trie.
func TestStatsAdd(t *testing.T) {
	var agg Stats
	agg.Add(Stats{
		StatesExplored: 10, PathConditions: 3, InfeasibleBranches: 2,
		TimeMilliseconds: 5, SolverCalls: 7,
		SearchStrategy: "dfs", ExploreParallelism: 1,
		Solver: SolverStats{Backend: "interval", Checks: 7, Sat: 5, Unsat: 2, CacheHits: 1},
		Memo:   MemoStats{Enabled: true, Step: 4, MemoHits: 6, StatesReplayed: 8, TrieNodes: 50},
	})
	agg.Add(Stats{
		StatesExplored: 5, PathConditions: 1, InfeasibleBranches: 1,
		TimeMilliseconds: 2, SolverCalls: 3,
		SearchStrategy: "bfs", ExploreParallelism: 4,
		Solver: SolverStats{Backend: "bitvec", Checks: 3, Sat: 3, ModelReuses: 2},
		Memo:   MemoStats{Enabled: true, Step: 9, MemoHits: 1, StatesExploredLive: 4, TrieNodes: 40},
	})
	agg.Add(Stats{StatesExplored: 1}) // cold analyze: memo disabled

	want := Stats{
		StatesExplored: 16, PathConditions: 4, InfeasibleBranches: 3,
		TimeMilliseconds: 7, SolverCalls: 10,
		SearchStrategy: "dfs", ExploreParallelism: 1,
		Solver: SolverStats{Backend: "interval", Checks: 10, Sat: 8, Unsat: 2, CacheHits: 1, ModelReuses: 2},
		Memo: MemoStats{
			Enabled: true, Step: 2, MemoHits: 7,
			StatesReplayed: 8, StatesExploredLive: 4, TrieNodes: 50,
		},
	}
	if !reflect.DeepEqual(agg, want) {
		t.Fatalf("aggregate mismatch:\ngot  %+v\nwant %+v", agg, want)
	}
}

// TestMergeStatsAdd pins the merge-block aggregation: Enabled is a
// disjunction, Bound keeps the first enabled sample, the counters sum.
func TestMergeStatsAdd(t *testing.T) {
	var agg MergeStats
	agg.Add(MergeStats{Merges: 0}) // unmerged run contributes nothing
	agg.Add(MergeStats{Enabled: true, Bound: 8, Merges: 3, MergedStatesSaved: 5, IteNodes: 12})
	agg.Add(MergeStats{Enabled: true, Bound: 2, Merges: 1, MergedStatesSaved: 1, IteNodes: 4})
	want := MergeStats{Enabled: true, Bound: 8, Merges: 4, MergedStatesSaved: 6, IteNodes: 16}
	if agg != want {
		t.Fatalf("aggregate mismatch:\ngot  %+v\nwant %+v", agg, want)
	}
}

// TestStatsMarshalOmitsZeroBlocks pins the uniform omission rule of the
// Stats JSON shape: the solver/memo/merge sub-blocks disappear when they
// equal their zero values and appear — under their fixed keys — when they
// carry data. A cold run's JSON must not serialize trees of zeros for
// machinery it never engaged.
func TestStatsMarshalOmitsZeroBlocks(t *testing.T) {
	bare, err := json.Marshal(Stats{StatesExplored: 3, SearchStrategy: "dfs"})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"solver_stats", "memo_stats", "merge_stats"} {
		if strings.Contains(string(bare), key) {
			t.Errorf("zero %s block not omitted: %s", key, bare)
		}
	}
	if !strings.Contains(string(bare), `"states_explored":3`) {
		t.Errorf("core counters missing: %s", bare)
	}

	full, err := json.Marshal(Stats{
		Solver: SolverStats{Backend: "interval", Checks: 1},
		Memo:   MemoStats{Enabled: true, Step: 1},
		Merge:  MergeStats{Enabled: true, Bound: MergeUnbounded, Merges: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"solver_stats":{`, `"memo_stats":{`, `"merge_stats":{`,
		`"backend":"interval"`, `"merged_states_saved":0`, `"bound":-1`,
	} {
		if !strings.Contains(string(full), want) {
			t.Errorf("marshaled stats missing %s: %s", want, full)
		}
	}
	// The override fields must shadow, not duplicate, the embedded ones.
	if n := strings.Count(string(full), `"merge_stats"`); n != 1 {
		t.Errorf("merge_stats appears %d times, want 1: %s", n, full)
	}

	// The solver_stats key set is wire format: every counter with a non-zero
	// value marshals under exactly these keys, in this order. A renamed
	// field or a dropped tag fails here.
	var solver SolverStats
	sv := reflect.ValueOf(&solver).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.String:
			f.SetString("interval")
		}
	}
	always := []string{
		"backend", "checks", "sat", "unsat", "unknown", "asserts",
		"pushed_frames", "popped_frames", "cache_hits", "cache_misses",
		"model_reuses", "box_conflicts", "full_solves", "search_nodes",
		"propagations", "box_snapshots", "frame_memo_hits",
	}
	// The resilience and containment counters are omitted while zero.
	optional := []string{
		"ext_solves", "ext_answers", "ext_unknowns", "ext_timeouts",
		"ext_restarts", "ext_breaker_trips", "fallback_solves",
		"member_failures", "check_panics",
	}
	want := append(append([]string(nil), always...), optional...)
	if keys := solverStatsKeys(t, Stats{Solver: solver}); !reflect.DeepEqual(keys, want) {
		t.Errorf("solver_stats keys:\ngot  %v\nwant %v", keys, want)
	}
	zeroOptional := Stats{Solver: SolverStats{Backend: "interval", Checks: 1}}
	if keys := solverStatsKeys(t, zeroOptional); !reflect.DeepEqual(keys, always) {
		t.Errorf("solver_stats keys with zero optional counters:\ngot  %v\nwant %v", keys, always)
	}

	// Round trip: the custom marshaler must stay decodable into Stats.
	var back Stats
	if err := json.Unmarshal(full, &back); err != nil {
		t.Fatal(err)
	}
	if back.Merge.Merges != 2 || back.Memo.Step != 1 || back.Solver.Checks != 1 {
		t.Errorf("round trip lost sub-block data: %+v", back)
	}
}

// solverStatsKeys marshals s and returns the keys of its solver_stats block
// in output order. The block is flat, so every `"name":` in it is a key.
func solverStatsKeys(t *testing.T, s Stats) []string {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var blocks struct {
		Solver json.RawMessage `json:"solver_stats"`
	}
	if err := json.Unmarshal(raw, &blocks); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, m := range jsonKey.FindAllStringSubmatch(string(blocks.Solver), -1) {
		keys = append(keys, m[1])
	}
	return keys
}

var jsonKey = regexp.MustCompile(`"([a-z_]+)":`)
