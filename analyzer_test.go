package dise

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dise/internal/artifacts"
)

// wideArtifact returns the OAE artifact: the widest built-in workload
// (9216 feasible paths), used where tests need an exploration that takes
// long enough to cancel mid-flight.
func wideArtifact(t testing.TB) (base string, mod string, proc string) {
	t.Helper()
	a, ok := artifacts.ByName("OAE")
	if !ok {
		t.Fatal("OAE artifact missing")
	}
	v, ok := a.Find("v1")
	if !ok {
		t.Fatal("OAE v1 missing")
	}
	return a.Base, a.SourceFor(v), a.Proc
}

func TestAnalyzerErrorKinds(t *testing.T) {
	a := NewAnalyzer()
	ctx := context.Background()

	cases := []struct {
		name  string
		req   Request
		kind  ErrorKind
		stage string
	}{
		{"base parse", Request{BaseSrc: "proc p( {", ModSrc: baseUpdate, Proc: "update"}, ParseError, "base version"},
		{"mod parse", Request{BaseSrc: baseUpdate, ModSrc: "proc p( {", Proc: "update"}, ParseError, "modified version"},
		{"base type", Request{BaseSrc: "proc p() { x = y; }", ModSrc: baseUpdate, Proc: "update"}, TypeError, "base version"},
		{"unknown proc", Request{BaseSrc: baseUpdate, ModSrc: modUpdate, Proc: "ghost"}, UnknownProc, "base version"},
	}
	for _, tc := range cases {
		_, err := a.Analyze(ctx, tc.req)
		var e *Error
		if !errors.As(err, &e) {
			t.Errorf("%s: error %v is not *dise.Error", tc.name, err)
			continue
		}
		if e.Kind != tc.kind || e.Stage != tc.stage {
			t.Errorf("%s: got kind=%v stage=%q, want kind=%v stage=%q", tc.name, e.Kind, e.Stage, tc.kind, tc.stage)
		}
	}

	// Execute classifies too.
	if _, err := a.Execute(ctx, baseUpdate, "ghost"); !errors.Is(err, &Error{Kind: UnknownProc}) {
		t.Errorf("Execute unknown proc: %v", err)
	}
}

func TestAnalyzerBudgetExhausted(t *testing.T) {
	base, mod, proc := wideArtifact(t)
	a := NewAnalyzer(WithMaxStates(50))
	_, err := a.Analyze(context.Background(), Request{BaseSrc: base, ModSrc: mod, Proc: proc})
	var e *Error
	if !errors.As(err, &e) || e.Kind != BudgetExhausted {
		t.Fatalf("want BudgetExhausted, got %v", err)
	}
	if _, err := a.Execute(context.Background(), base, proc); !errors.Is(err, &Error{Kind: BudgetExhausted}) {
		t.Fatalf("Execute: want BudgetExhausted, got %v", err)
	}
}

func TestAnalyzerCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := NewAnalyzer()
	_, err := a.Analyze(ctx, Request{BaseSrc: baseUpdate, ModSrc: modUpdate, Proc: "update"})
	var e *Error
	if !errors.As(err, &e) || e.Kind != Cancelled {
		t.Fatalf("want Cancelled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Cancelled error must unwrap to context.Canceled, got %v", err)
	}
}

// TestAnalyzerCancelMidSearch checks the acceptance criterion for
// cancellation: a context cancelled while a deep exploration is running
// aborts it within one scheduling quantum of the step loop, i.e. orders of
// magnitude before the exploration would have finished (~0.5s for the OAE
// artifact's 9216 paths).
func TestAnalyzerCancelMidSearch(t *testing.T) {
	base, mod, proc := wideArtifact(t)
	a := NewAnalyzer()

	for _, mode := range []string{"Execute", "Analyze"} {
		t.Run(mode, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			var err error
			if mode == "Execute" {
				_, err = a.Execute(ctx, mod, proc)
			} else {
				_, err = a.Analyze(ctx, Request{BaseSrc: base, ModSrc: mod, Proc: proc})
			}
			elapsed := time.Since(start)
			var e *Error
			if !errors.As(err, &e) || e.Kind != Cancelled {
				t.Fatalf("want Cancelled, got %v (after %v)", err, elapsed)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("must unwrap to context.Canceled: %v", err)
			}
			// The full exploration takes hundreds of ms; a prompt abort
			// returns well under that. Generous bound to stay robust on slow
			// CI machines.
			if elapsed > 250*time.Millisecond {
				t.Errorf("cancellation took %v; want prompt abort", elapsed)
			}
		})
	}
}

func TestAnalyzerDeadline(t *testing.T) {
	base, mod, proc := wideArtifact(t)
	a := NewAnalyzer()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := a.Analyze(ctx, Request{BaseSrc: base, ModSrc: mod, Proc: proc})
	var e *Error
	if !errors.As(err, &e) || e.Kind != Cancelled {
		t.Fatalf("want Cancelled on deadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("must unwrap to context.DeadlineExceeded: %v", err)
	}
}

// TestAnalyzeBatchMatchesSequential checks the acceptance criterion for
// batching: AnalyzeBatch with parallelism >= 4 returns results identical to
// sequential runs, in request order.
func TestAnalyzeBatchMatchesSequential(t *testing.T) {
	a, _ := artifacts.ByName("WBS")
	var reqs []Request
	for _, v := range a.Versions {
		reqs = append(reqs, Request{BaseSrc: a.Base, ModSrc: a.SourceFor(v), Proc: a.Proc})
	}
	// One request fails on purpose: batch entries fail independently.
	reqs = append(reqs, Request{BaseSrc: a.Base, ModSrc: a.Base, Proc: "ghost"})

	sequential := NewAnalyzer()
	var wantPaths [][]string
	var wantErr []error
	for _, req := range reqs {
		res, err := sequential.Analyze(context.Background(), req)
		if err != nil {
			wantPaths = append(wantPaths, nil)
			wantErr = append(wantErr, err)
			continue
		}
		wantPaths = append(wantPaths, res.PathConditions())
		wantErr = append(wantErr, nil)
	}

	batch := NewAnalyzer(WithParallelism(4))
	out := batch.AnalyzeBatch(context.Background(), reqs)
	if len(out) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(out), len(reqs))
	}
	for i, br := range out {
		if br.Index != i {
			t.Errorf("result %d has Index %d", i, br.Index)
		}
		if wantErr[i] != nil {
			var e *Error
			if !errors.As(br.Err, &e) || e.Kind != UnknownProc {
				t.Errorf("request %d: want UnknownProc, got %v", i, br.Err)
			}
			continue
		}
		if br.Err != nil {
			t.Errorf("request %d failed: %v", i, br.Err)
			continue
		}
		got := strings.Join(br.Result.PathConditions(), "\n")
		want := strings.Join(wantPaths[i], "\n")
		if got != want {
			t.Errorf("request %d: batch result differs from sequential:\n%s\nvs\n%s", i, got, want)
		}
	}

	// The batch shares one base version across all requests: the cache must
	// have parsed it once, not once per worker.
	if stats := batch.CacheStats(); stats.Misses > int64(len(reqs)+1) {
		t.Errorf("cache misses = %d, want <= %d (one per distinct source)", stats.Misses, len(reqs)+1)
	}
}

func TestAnalyzeBatchCancellation(t *testing.T) {
	base, mod, proc := wideArtifact(t)
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{BaseSrc: base, ModSrc: mod, Proc: proc}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	out := NewAnalyzer(WithParallelism(4)).AnalyzeBatch(ctx, reqs)
	cancelled := 0
	for _, br := range out {
		if errors.Is(br.Err, &Error{Kind: Cancelled}) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("cancelling a batch should fail in-flight and pending requests")
	}
}

// TestAnalyzerCacheHitIdentical checks the acceptance criterion for the
// parse/CFG cache: a warm-cache analysis returns results identical to the
// cold path.
func TestAnalyzerCacheHitIdentical(t *testing.T) {
	a, _ := artifacts.ByName("ASW")
	v, _ := a.Find("v6")
	req := Request{BaseSrc: a.Base, ModSrc: a.SourceFor(v), Proc: a.Proc}

	warm := NewAnalyzer()
	cold, err := warm.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.CacheStats(); s.Hits != 0 || s.Misses != 2 {
		t.Errorf("cold run cache stats = %+v, want 0 hits / 2 misses", s)
	}
	hot, err := warm.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.CacheStats(); s.Hits != 2 {
		t.Errorf("warm run cache stats = %+v, want 2 hits", s)
	}

	if got, want := strings.Join(hot.PathConditions(), "\n"), strings.Join(cold.PathConditions(), "\n"); got != want {
		t.Errorf("cache hit changed the result:\n%s\nvs\n%s", got, want)
	}
	if hot.ChangedNodes != cold.ChangedNodes ||
		fmt.Sprint(hot.AffectedConditionalLines) != fmt.Sprint(cold.AffectedConditionalLines) ||
		fmt.Sprint(hot.AffectedWriteLines) != fmt.Sprint(cold.AffectedWriteLines) {
		t.Errorf("cache hit changed affected sets: %+v vs %+v", hot, cold)
	}
	if hot.Stats.StatesExplored != cold.Stats.StatesExplored || hot.Stats.SolverCalls != cold.Stats.SolverCalls {
		t.Errorf("cache hit changed exploration: %+v vs %+v", hot.Stats, cold.Stats)
	}
}

func TestAnalyzerCacheEviction(t *testing.T) {
	a := NewAnalyzer(WithCacheCapacity(1))
	ctx := context.Background()
	if _, err := a.Execute(ctx, baseUpdate, "update"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute(ctx, modUpdate, "update"); err != nil {
		t.Fatal(err)
	}
	if s := a.CacheStats(); s.Entries != 1 {
		t.Errorf("cache entries = %d, want 1 (capacity bound)", s.Entries)
	}
	// The first source was evicted: analyzing it again is a miss, and still
	// produces the right result.
	sum, err := a.Execute(ctx, baseUpdate, "update")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewAnalyzer().Execute(ctx, baseUpdate, "update")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Paths) != len(fresh.Paths) {
		t.Errorf("paths after eviction = %d, want %d", len(sum.Paths), len(fresh.Paths))
	}
}

func TestAnalyzeStream(t *testing.T) {
	a := NewAnalyzer()
	var streamed []string
	res, err := a.AnalyzeStream(context.Background(),
		Request{BaseSrc: baseUpdate, ModSrc: modUpdate, Proc: "update"},
		func(p PathInfo) bool {
			streamed = append(streamed, p.PathCondition)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(streamed, "\n"), strings.Join(res.PathConditions(), "\n"); got != want {
		t.Errorf("streamed paths differ from final result:\n%s\nvs\n%s", got, want)
	}
	if len(streamed) != 7 {
		t.Errorf("streamed %d paths, want 7", len(streamed))
	}
}

func TestAnalyzeStreamEarlyStop(t *testing.T) {
	a := NewAnalyzer()
	var n atomic.Int32
	res, err := a.AnalyzeStream(context.Background(),
		Request{BaseSrc: baseUpdate, ModSrc: modUpdate, Proc: "update"},
		func(PathInfo) bool { return n.Add(1) < 3 })
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 3 {
		t.Errorf("yield called %d times, want 3 (stop after third)", n.Load())
	}
	if len(res.Paths) != 3 {
		t.Errorf("early-stopped result has %d paths, want 3", len(res.Paths))
	}
}

func TestAnalyzerInterprocedural(t *testing.T) {
	mod := strings.Replace(interprocBase, "Total = Total + v;", "Total = Total + v + v;", 1)
	a := NewAnalyzer()
	res, err := a.Analyze(context.Background(), Request{BaseSrc: interprocBase, ModSrc: mod, Proc: "main", Interprocedural: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("interprocedural paths = %d, want 2", len(res.Paths))
	}
	if _, err := a.Analyze(context.Background(), Request{BaseSrc: interprocBase, ModSrc: mod, Proc: "ghost", Interprocedural: true}); !errors.Is(err, &Error{Kind: UnknownProc}) {
		t.Errorf("unknown entry: %v", err)
	}
}
