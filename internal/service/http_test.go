package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dise"
	"dise/internal/artifacts"
)

// post sends one JSON request and decodes the reply into out (when out is
// non-nil), returning the status code and, for error replies, the wire code.
func post(t *testing.T, client *http.Client, url string, body, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var ep ErrorPayload
		if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil {
			t.Fatalf("POST %s: status %d with undecodable error body: %v", url, resp.StatusCode, err)
		}
		return resp.StatusCode, ep.Error.Code
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding reply: %v", url, err)
		}
	}
	return resp.StatusCode, ""
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding reply: %v", url, err)
		}
	}
	return resp.StatusCode
}

// newTestServer builds a Service plus httptest server and registers cleanup.
func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

// wbsChain returns the WBS evolution chain's sources (base first).
func wbsChain() (proc string, srcs []string) {
	art, _ := artifacts.ByName("WBS")
	srcs = []string{art.Base}
	for _, v := range art.Versions {
		srcs = append(srcs, art.SourceFor(v))
	}
	return art.Proc, srcs
}

// TestServiceSessionWorkflow drives the full session lifecycle over HTTP:
// create (seeded), advance twice, check memo warmth, delete, advance-after-
// delete fails with 404.
func TestServiceSessionWorkflow(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	proc, srcs := wbsChain()

	var created CreateSessionResponse
	status, _ := post(t, srv.Client(), srv.URL+"/v1/sessions",
		CreateSessionRequest{Tenant: "t1", InitialSrc: srcs[0], Proc: proc}, &created)
	if status != http.StatusCreated || created.SessionID == "" {
		t.Fatalf("create: status %d, id %q", status, created.SessionID)
	}

	var res ResultPayload
	status, _ = post(t, srv.Client(), srv.URL+"/v1/sessions/"+created.SessionID+"/advance",
		AdvanceRequest{Tenant: "t1", NextSrc: srcs[1]}, &res)
	if status != http.StatusOK {
		t.Fatalf("advance 1: status %d", status)
	}
	if m := res.Stats.Memo; !m.Enabled || m.Step != 1 || m.NodesKept == 0 {
		t.Fatalf("advance 1: session not seeded from the initial version: %+v", m)
	}
	status, _ = post(t, srv.Client(), srv.URL+"/v1/sessions/"+created.SessionID+"/advance",
		AdvanceRequest{Tenant: "t1", NextSrc: srcs[2]}, &res)
	if status != http.StatusOK || res.Stats.Memo.Step != 2 {
		t.Fatalf("advance 2: status %d, memo %+v", status, res.Stats.Memo)
	}
	// From the second step on the chain is warm (the v1 mutant taints every
	// WBS path, so step 1 alone may replay nothing).
	if m := res.Stats.Memo; m.MemoHits == 0 {
		t.Fatalf("advance 2: warm chain answered no branch decisions from the trie: %+v", m)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+created.SessionID+"?tenant=t1", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	status, code := post(t, srv.Client(), srv.URL+"/v1/sessions/"+created.SessionID+"/advance",
		AdvanceRequest{Tenant: "t1", NextSrc: srcs[3]}, nil)
	if status != http.StatusNotFound || code != "session_not_found" {
		t.Fatalf("advance after delete: status %d code %q", status, code)
	}
}

// TestServiceErrorMapping pins the HTTP status and wire code for every error
// kind a handler can produce — the satellite contract that handlers route
// kinds through errors.Is sentinels, not type switches.
func TestServiceErrorMapping(t *testing.T) {
	// Unit level: every classified error maps to its documented pair.
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{&dise.Error{Kind: dise.ParseError}, 422, "parse_error"},
		{&dise.Error{Kind: dise.TypeError}, 422, "type_error"},
		{&dise.Error{Kind: dise.UnknownProc}, 422, "unknown_proc"},
		{&dise.Error{Kind: dise.BudgetExhausted}, 422, "budget_exhausted"},
		{&dise.Error{Kind: dise.Cancelled, Err: context.DeadlineExceeded}, 504, "cancelled"},
		{&dise.Error{Kind: dise.InvalidConfig}, 500, "invalid_config"},
		{fmt.Errorf("wrapped: %w", &dise.Error{Kind: dise.ParseError, Stage: "base version"}), 422, "parse_error"},
		{context.DeadlineExceeded, 504, "cancelled"},
		{errQueueFull, 429, "queue_full"},
		{errSessionCap, 429, "session_cap"},
		{errSessionNotFound, 404, "session_not_found"},
		{errBadRequest, 400, "bad_request"},
		{errors.New("mystery"), 500, "internal"},
	}
	for _, c := range cases {
		status, code := statusOf(c.err)
		if status != c.status || code != c.code {
			t.Errorf("statusOf(%v) = %d %q, want %d %q", c.err, status, code, c.status, c.code)
		}
	}

	// End to end: real handler failures produce the mapped envelopes.
	_, srv := newTestServer(t, Config{})
	proc, srcs := wbsChain()
	oaeArt, _ := artifacts.ByName("OAE")
	oaeBase, oaeMod, oaeProc := oaeArt.Base, oaeArt.SourceFor(oaeArt.Versions[0]), oaeArt.Proc
	httpCases := []struct {
		name   string
		body   AnalyzeRequest
		status int
		code   string
	}{
		{"parse", AnalyzeRequest{Tenant: "t", BaseSrc: "proc p(", ModSrc: "proc p(", Proc: "p"}, 422, "parse_error"},
		{"unknown proc", AnalyzeRequest{Tenant: "t", BaseSrc: srcs[0], ModSrc: srcs[1], Proc: "nope"}, 422, "unknown_proc"},
		{"missing field", AnalyzeRequest{Tenant: "t", BaseSrc: srcs[0], Proc: proc}, 400, "bad_request"},
		// The deadline case uses OAE — hundreds of milliseconds of directed
		// search — so a 1ms deadline reliably expires mid-analysis.
		{"deadline", AnalyzeRequest{Tenant: "t", BaseSrc: oaeBase, ModSrc: oaeMod, Proc: oaeProc, DeadlineMillis: 1}, 504, "cancelled"},
	}
	for _, c := range httpCases {
		status, code := post(t, srv.Client(), srv.URL+"/v1/analyze", c.body, nil)
		if status != c.status || code != c.code {
			t.Errorf("%s: status %d code %q, want %d %q", c.name, status, code, c.status, c.code)
		}
	}
}

// TestServiceSurvivesDeeplyNestedInput pins that a pathologically nested
// source is a parse error, not a crash: a million nested parentheses would
// overflow a recursive-descent parser's stack and take the process, with
// every resident session, down.
func TestServiceSurvivesDeeplyNestedInput(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	const depth = 1000000
	src := "proc p() { a = " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "; }"
	status, code := post(t, srv.Client(), srv.URL+"/v1/analyze",
		AnalyzeRequest{Tenant: "t", BaseSrc: src, ModSrc: src, Proc: "p"}, nil)
	if status != 422 || code != "parse_error" {
		t.Errorf("status %d code %q, want 422 %q", status, code, "parse_error")
	}
	var h HealthResponse
	if status := getJSON(t, srv.Client(), srv.URL+"/healthz", &h); status != 200 || h.Status != "ok" {
		t.Errorf("healthz after the nested input: status %d, %+v", status, h)
	}
}

// TestServiceEvictionOverHTTP pins the acceptance-criteria behavior: with a
// small store cap, creations beyond the cap LRU-evict, per-tenant overflow
// is 429, and an evicted session's ID stops resolving (404).
func TestServiceEvictionOverHTTP(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxSessions: 2, MaxSessionsPerTenant: 2})
	proc, srcs := wbsChain()

	create := func(tenant string) (string, int, string) {
		var out CreateSessionResponse
		status, code := post(t, srv.Client(), srv.URL+"/v1/sessions",
			CreateSessionRequest{Tenant: tenant, InitialSrc: srcs[0], Proc: proc, SkipSeed: true}, &out)
		return out.SessionID, status, code
	}
	id1, status, _ := create("a")
	if status != http.StatusCreated {
		t.Fatal(status)
	}
	if _, status, code := create("a"); status != http.StatusCreated {
		t.Fatal(status, code)
	}
	// Tenant a is at its cap.
	if _, status, code := create("a"); status != 429 || code != "session_cap" {
		t.Fatalf("over-cap create: status %d code %q", status, code)
	}
	// Tenant b's creation evicts the store-wide LRU victim, id1.
	if _, status, _ := create("b"); status != http.StatusCreated {
		t.Fatal(status)
	}
	status, code := post(t, srv.Client(), srv.URL+"/v1/sessions/"+id1+"/advance",
		AdvanceRequest{Tenant: "a", NextSrc: srcs[1]}, nil)
	if status != http.StatusNotFound || code != "session_not_found" {
		t.Fatalf("advance on LRU-evicted session: status %d code %q", status, code)
	}

	var m Metrics
	getJSON(t, srv.Client(), srv.URL+"/metrics", &m)
	if m.Sessions.EvictedLRU != 1 || m.Sessions.RejectedCap != 1 || m.Sessions.Occupancy != 2 {
		t.Fatalf("store metrics: %+v", m.Sessions)
	}
}

// TestServiceMetricsAndHealth exercises /healthz and /metrics after real
// traffic: latency histograms fill, the cumulative memo block shows the
// session's replay hits, and the shared caches report cross-request reuse.
func TestServiceMetricsAndHealth(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	proc, srcs := wbsChain()

	var created CreateSessionResponse
	post(t, srv.Client(), srv.URL+"/v1/sessions",
		CreateSessionRequest{Tenant: "t1", InitialSrc: srcs[0], Proc: proc}, &created)
	for i := 1; i <= 3; i++ {
		if status, code := post(t, srv.Client(), srv.URL+"/v1/sessions/"+created.SessionID+"/advance",
			AdvanceRequest{Tenant: "t1", NextSrc: srcs[i]}, nil); status != 200 {
			t.Fatalf("advance %d: %d %s", i, status, code)
		}
	}
	// One failing request lands in the error counters.
	post(t, srv.Client(), srv.URL+"/v1/analyze",
		AnalyzeRequest{Tenant: "t1", BaseSrc: "proc p(", ModSrc: "proc p(", Proc: "p"}, nil)

	var h HealthResponse
	if status := getJSON(t, srv.Client(), srv.URL+"/healthz", &h); status != 200 {
		t.Fatalf("healthz status %d", status)
	}
	if h.Status != "ok" || h.Sessions != 1 {
		t.Fatalf("healthz: %+v", h)
	}

	var m Metrics
	if status := getJSON(t, srv.Client(), srv.URL+"/metrics", &m); status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	if m.Latency.Advance.Count != 3 || m.Latency.Advance.P99 < m.Latency.Advance.P50 {
		t.Fatalf("advance latency summary: %+v", m.Latency.Advance)
	}
	if m.Latency.Seed.Count != 1 {
		t.Fatalf("seed latency summary: %+v", m.Latency.Seed)
	}
	if !m.MemoStats.Enabled || m.MemoStats.Step != 3 || m.MemoStats.MemoHits == 0 {
		t.Fatalf("cumulative memo stats: %+v", m.MemoStats)
	}
	if m.SolverStats.Checks == 0 {
		t.Fatalf("cumulative solver stats empty: %+v", m.SolverStats)
	}
	if m.Requests["advance"] != 3 || m.Requests["create"] != 1 || m.Requests["analyze"] != 1 {
		t.Fatalf("request counters: %+v", m.Requests)
	}
	if m.Errors["parse_error"] != 1 {
		t.Fatalf("error counters: %+v", m.Errors)
	}
	// 1 create + 3 advances + 1 (failed) analyze all passed admission.
	if m.Admission.Admitted != 5 || m.Admission.InFlight != 0 {
		t.Fatalf("admission stats: %+v", m.Admission)
	}
	if m.Memory.HeapInuseBytes == 0 || m.Memory.SessionsPerGB <= 0 {
		t.Fatalf("memory stats: %+v", m.Memory)
	}

	// Both cache blocks carry exactly the five cache counters, by name.
	var raw struct {
		ParseCache  map[string]json.RawMessage `json:"parse_cache"`
		PrefixCache map[string]json.RawMessage `json:"prefix_cache"`
	}
	getJSON(t, srv.Client(), srv.URL+"/metrics", &raw)
	want := []string{"bytes_approx", "entries", "evictions", "hits", "misses"}
	for name, block := range map[string]map[string]json.RawMessage{"parse_cache": raw.ParseCache, "prefix_cache": raw.PrefixCache} {
		keys := make([]string, 0, len(block))
		for k := range block {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Errorf("/metrics %s keys = %v, want %v", name, keys, want)
		}
	}
}

// TestServiceSharedCachesAcrossTenants pins the cross-tenant warming claim:
// after tenant A analyzes a version pair, tenant B's identical request hits
// the shared parse cache and solver prefix cache.
func TestServiceSharedCachesAcrossTenants(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	proc, srcs := wbsChain()

	req := AnalyzeRequest{Tenant: "alice", BaseSrc: srcs[0], ModSrc: srcs[1], Proc: proc}
	if status, code := post(t, srv.Client(), srv.URL+"/v1/analyze", req, nil); status != 200 {
		t.Fatalf("tenant alice: %d %s", status, code)
	}
	parse0 := svc.Analyzer().CacheStats()
	prefix0 := svc.Analyzer().SolverCacheStats()

	req.Tenant = "bob"
	if status, code := post(t, srv.Client(), srv.URL+"/v1/analyze", req, nil); status != 200 {
		t.Fatalf("tenant bob: %d %s", status, code)
	}
	parse1 := svc.Analyzer().CacheStats()
	prefix1 := svc.Analyzer().SolverCacheStats()

	if parse1.Hits <= parse0.Hits {
		t.Errorf("parse cache not shared across tenants: %+v -> %+v", parse0, parse1)
	}
	if parse1.Misses != parse0.Misses {
		t.Errorf("tenant bob re-parsed: %+v -> %+v", parse0, parse1)
	}
	if prefix1.Hits <= prefix0.Hits {
		t.Errorf("prefix cache not shared across tenants: %+v -> %+v", prefix0, prefix1)
	}
}

// TestServiceNoGoroutineLeaks pins the acceptance criterion that serving
// traffic — including evictions and failed requests — leaks no goroutines
// once the service and server shut down.
func TestServiceNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{MaxSessions: 2, SweepInterval: time.Millisecond})
	srv := httptest.NewServer(svc.Handler())
	proc, srcs := wbsChain()
	for i := 0; i < 4; i++ {
		var created CreateSessionResponse
		post(t, srv.Client(), srv.URL+"/v1/sessions",
			CreateSessionRequest{Tenant: fmt.Sprintf("t%d", i), InitialSrc: srcs[0], Proc: proc}, &created)
		post(t, srv.Client(), srv.URL+"/v1/sessions/"+created.SessionID+"/advance",
			AdvanceRequest{Tenant: fmt.Sprintf("t%d", i), NextSrc: srcs[1]}, nil)
	}
	post(t, srv.Client(), srv.URL+"/v1/analyze",
		AnalyzeRequest{Tenant: "t", BaseSrc: "proc p(", ModSrc: "proc p(", Proc: "p"}, nil)
	srv.CloseClientConnections()
	srv.Close()
	svc.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceAnalyzeMergeBound pins the state-merging surface of the one-shot
// endpoint: merge_bound flows through to the engine (the reply's merge_stats
// block is populated), invalid bounds are the client's fault (400, not the
// InvalidConfig 500), the server-side default applies only when the request
// names no bound, and the cumulative /metrics dashboard aggregates the
// merge counters.
func TestServiceAnalyzeMergeBound(t *testing.T) {
	proc, srcs := wbsChain()
	req := AnalyzeRequest{Tenant: "t1", BaseSrc: srcs[0], ModSrc: srcs[1], Proc: proc}

	_, srv := newTestServer(t, Config{})
	var res ResultPayload
	if status, _ := post(t, srv.Client(), srv.URL+"/v1/analyze", req, &res); status != http.StatusOK {
		t.Fatalf("plain analyze: status %d", status)
	}
	if res.Stats.Merge.Enabled {
		t.Fatalf("plain analyze reports merging: %+v", res.Stats.Merge)
	}

	merged := req
	merged.MergeBound = dise.MergeUnbounded
	if status, _ := post(t, srv.Client(), srv.URL+"/v1/analyze", merged, &res); status != http.StatusOK {
		t.Fatalf("merged analyze: status %d", status)
	}
	if !res.Stats.Merge.Enabled || res.Stats.Merge.Bound != dise.MergeUnbounded {
		t.Fatalf("merge_stats not populated: %+v", res.Stats.Merge)
	}

	bad := req
	bad.MergeBound = 1
	if status, code := post(t, srv.Client(), srv.URL+"/v1/analyze", bad, nil); status != http.StatusBadRequest || code != "bad_request" {
		t.Fatalf("merge_bound 1: status %d code %q, want 400 bad_request", status, code)
	}

	var metrics Metrics
	getJSON(t, srv.Client(), srv.URL+"/metrics", &metrics)
	if !metrics.MergeStats.Enabled {
		t.Fatalf("cumulative merge_stats not aggregated: %+v", metrics.MergeStats)
	}

	// A server default applies when the request names no bound; sessions on
	// the same server still work (the default never reaches them).
	_, srvDef := newTestServer(t, Config{DefaultMergeBound: 2})
	if status, _ := post(t, srvDef.Client(), srvDef.URL+"/v1/analyze", req, &res); status != http.StatusOK {
		t.Fatalf("default-merge analyze: status %d", status)
	}
	if !res.Stats.Merge.Enabled || res.Stats.Merge.Bound != 2 {
		t.Fatalf("server default not applied: %+v", res.Stats.Merge)
	}
	var created CreateSessionResponse
	if status, _ := post(t, srvDef.Client(), srvDef.URL+"/v1/sessions",
		CreateSessionRequest{Tenant: "t1", InitialSrc: srcs[0], Proc: proc}, &created); status != http.StatusCreated {
		t.Fatalf("session create on default-merge server: status %d", status)
	}
	// Fresh payload: a zero merge_stats block is omitted on the wire, so
	// decoding into the reused struct would keep the previous reply's values.
	var advRes ResultPayload
	if status, _ := post(t, srvDef.Client(), srvDef.URL+"/v1/sessions/"+created.SessionID+"/advance",
		AdvanceRequest{Tenant: "t1", NextSrc: srcs[1]}, &advRes); status != http.StatusOK {
		t.Fatalf("session advance on default-merge server: status %d", status)
	}
	if advRes.Stats.Merge.Enabled {
		t.Fatalf("session step reports merging: %+v", advRes.Stats.Merge)
	}
}
