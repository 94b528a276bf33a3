package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"dise"
	"dise/internal/lang/ast"
	"dise/internal/randprog"
)

// TestSoakBoundedMemoryChurn is the memory-plateau gate of the bounded
// service (PR 8): hundreds of short random version chains churn through a
// store far smaller than the chain population, with every memory bound on —
// per-session trie node budget, global trie-byte ceiling, intern-table
// collection, and byte-budgeted shared caches. The test asserts three
// things:
//
//  1. Plateau: heap-in-use, sampled across three equal windows after a
//     warm-up window (runtime.GC before each read), does not keep growing —
//     later windows stay within a generous factor of the first. Unbounded,
//     the intern table and resident tries grow with every distinct chain.
//  2. Zero drift: sampled chains are simultaneously checked against a cold
//     pairwise Analyze on a fresh unbounded Analyzer — eviction may only
//     cost hit rate, never change an answer.
//  3. The bounds were binding: the store really evicted, and the intern
//     collector really collected, so the plateau is the bounds' doing.
//
// -short scales the churn down to a smoke (CI runs it that way); the full
// population runs in the soak step. Windows are compared with slack rather
// than exact equality: the host is often a single shared core and the Go
// heap returns memory lazily.
func TestSoakBoundedMemoryChurn(t *testing.T) {
	chains, steps := 240, 4
	if testing.Short() {
		chains, steps = 48, 3
	}
	_, srv := newTestServer(t, Config{
		MaxSessions:  8, // far below the chain population: constant churn
		MaxTrieBytes: 1 << 20,
		AnalyzerOptions: []dise.Option{
			dise.WithMemoNodeBudget(512),
			dise.WithInternGC(8),
			dise.WithCacheByteBudget(1 << 20),
		},
	})
	ref := dise.NewAnalyzer() // unbounded correctness reference
	ctx := context.Background()

	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	driveChain := func(i int, check bool) {
		g := randprog.New(int64(i), randprog.Config{})
		prog := g.Program()
		srcs := []string{ast.Pretty(prog)}
		for s := 0; s < steps; s++ {
			mutated, _ := g.Mutate(prog, 1+s%2)
			srcs = append(srcs, ast.Pretty(mutated))
			prog = mutated
		}
		tenant := fmt.Sprintf("t%d", i%16)
		var created CreateSessionResponse
		status, code := post(t, srv.Client(), srv.URL+"/v1/sessions",
			CreateSessionRequest{Tenant: tenant, InitialSrc: srcs[0], Proc: "p"}, &created)
		if status != http.StatusCreated {
			t.Fatalf("chain %d: create: status %d code %q", i, status, code)
		}
		for s := 1; s < len(srcs); s++ {
			var got ResultPayload
			status, code := post(t, srv.Client(), srv.URL+"/v1/sessions/"+created.SessionID+"/advance",
				AdvanceRequest{Tenant: tenant, NextSrc: srcs[s]}, &got)
			if status != http.StatusOK {
				t.Fatalf("chain %d step %d: advance: status %d code %q", i, s, status, code)
			}
			if !check {
				continue
			}
			cold, err := ref.Analyze(ctx, dise.Request{BaseSrc: srcs[s-1], ModSrc: srcs[s], Proc: "p"})
			if err != nil {
				t.Fatalf("chain %d step %d: cold Analyze: %v", i, s, err)
			}
			want := PayloadOf(cold)
			// Stats describe how the answer was computed (memo reuse, cache
			// hits, wall clock) — the drift check is about the answer.
			got.Stats, want.Stats = dise.Stats{}, dise.Stats{}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if !reflect.DeepEqual(gotJSON, wantJSON) {
				t.Fatalf("chain %d step %d: bounded service drifted from unbounded cold analysis\nbounded: %s\ncold:    %s",
					i, s, gotJSON, wantJSON)
			}
		}
	}

	// One warm-up window, then three measured windows.
	perWindow := chains / 4
	var windows []uint64
	for w := 0; w < 4; w++ {
		for i := w * perWindow; i < (w+1)*perWindow; i++ {
			// Every 8th chain is fully checked against the unbounded
			// reference; the rest are pure churn.
			driveChain(i, i%8 == 0)
		}
		if w > 0 {
			windows = append(windows, heapInuse())
		}
	}

	// Plateau: no measured window may exceed the first measured window by
	// more than 50% plus a fixed 16MiB allowance (GC timing noise on a
	// shared single-core host).
	base := windows[0]
	for i, w := range windows[1:] {
		if limit := base + base/2 + 16<<20; w > limit {
			t.Fatalf("heap grew across windows instead of plateauing: windows=%v (window %d: %d > limit %d)",
				windows, i+2, w, limit)
		}
	}

	// The bounds must have been binding, or the plateau proves nothing.
	var metrics Metrics
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	st := metrics.Sessions
	if st.Occupancy > 8 {
		t.Fatalf("store occupancy %d exceeds its capacity 8", st.Occupancy)
	}
	if st.EvictedLRU == 0 && st.EvictedBytes == 0 {
		t.Fatalf("store never evicted under churn: %+v", st)
	}
	mb := metrics.MemoryBreakdown
	if mb.InternCollected == 0 {
		t.Fatalf("intern collector never collected under churn: %+v", mb)
	}
	if st.TrieBytes > 1<<20 {
		t.Fatalf("resident trie bytes %d exceed the 1MiB ceiling", st.TrieBytes)
	}
	t.Logf("soak: %d chains x %d steps; windows=%v; store %+v; memory %+v",
		chains, steps, windows, st, mb)
}
