package dise

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
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

// cancelOnPoll is a context that cancels itself on its n-th Err poll. The
// engine polls Err once per explored state, so the cancellation lands at
// the same point of the exploration however fast the host explores.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
	n      int64
	polls  atomic.Int64
}

func (c *cancelOnPoll) Err() error {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestAnalyzerCancelMidSearch checks the acceptance criterion for
// cancellation: a context cancelled while a deep exploration is running
// aborts it within one scheduling quantum of the step loop. The context
// cancels itself on the 1000th poll, early in OAE's exploration (33,790
// states under Execute, 8,452 under Analyze of v1); a timer cannot place
// the cancellation mid-search, since DiSE of v1 finishes in about 10 ms.
func TestAnalyzerCancelMidSearch(t *testing.T) {
	base, mod, proc := wideArtifact(t)
	a := NewAnalyzer()

	for _, mode := range []string{"Execute", "Analyze"} {
		t.Run(mode, func(t *testing.T) {
			inner, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := &cancelOnPoll{Context: inner, cancel: cancel, n: 1000}
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
				t.Fatalf("want Cancelled, got %v (after %v, %d polls)", err, elapsed, ctx.polls.Load())
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("must unwrap to context.Canceled: %v", err)
			}
			// The step loop stops at the first poll that sees the
			// cancellation; the facade may poll a few times on the way out,
			// where going on exploring would poll thousands of times more.
			if polls := ctx.polls.Load(); polls > ctx.n+10 {
				t.Errorf("%d polls after the cancellation at poll %d, want the exploration to stop", polls-ctx.n, ctx.n)
			}
			// Generous bound to stay robust on slow CI machines.
			if elapsed > 250*time.Millisecond {
				t.Errorf("cancellation took %v; want prompt abort", elapsed)
			}
		})
	}
}

// TestAnalyzerDeadline gives a fresh Analyzer 1 ms for OAE v1, which takes
// several milliseconds (parse, CFG, diff and a search of 8,452 states), so
// the deadline expires after Analyze has started.
func TestAnalyzerDeadline(t *testing.T) {
	base, mod, proc := wideArtifact(t)
	a := NewAnalyzer()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
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

// TestParseCacheSingleFlight pins the single-flight miss path: eight
// goroutines request one source nobody has parsed yet, and the cache
// records exactly one miss — the other seven wait for that parse and count
// as hits, sharing its entry. A failing source reaches every waiter as a
// ParseError and is not cached.
func TestParseCacheSingleFlight(t *testing.T) {
	a, _ := artifacts.ByName("WBS")
	pc := newProgramCache(0, 0)
	getAll := func(src string) ([]*cachedProgram, []error) {
		const n = 8
		entries := make([]*cachedProgram, n)
		errs := make([]error, n)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < n; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				entries[i], errs[i] = pc.get(src)
			}()
		}
		start.Done()
		done.Wait()
		return entries, errs
	}

	entries, errs := getAll(a.Base)
	for i := range entries {
		if errs[i] != nil || entries[i] == nil || entries[i] != entries[0] {
			t.Fatalf("request %d: entry %p, err %v; want the one shared entry %p", i, entries[i], errs[i], entries[0])
		}
	}
	if st := pc.stats(); st.Misses != 1 || st.Hits != 7 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 7 hits, 1 entry", st)
	}

	// A request that arrives after a failed parse finished finds nothing
	// cached and parses again, so only the totals are fixed here.
	const bad = "proc broken( {"
	_, errs = getAll(bad)
	for i, err := range errs {
		var e *Error
		if !errors.As(err, &e) || e.Kind != ParseError {
			t.Fatalf("request %d: err = %v, want a ParseError", i, err)
		}
	}
	st := pc.stats()
	if st.Misses < 2 || st.Misses+st.Hits != 16 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 16 lookups, at least one more miss, still 1 entry", st)
	}
	if _, err := pc.get(bad); err == nil {
		t.Fatal("a failing source parsed on retry")
	}
	if after := pc.stats(); after.Misses != st.Misses+1 || after.Entries != 1 {
		t.Fatalf("stats after a retry = %+v, want one more miss: failures are not cached", after)
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
