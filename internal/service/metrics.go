package service

import (
	"runtime"
	"sync"
	"time"

	"dise"
	"dise/internal/sym"
)

// latencyBucketsMillis are the histogram bucket upper bounds, exponential
// base-2 from 250µs to ~2m; observations above the last bound land in the
// overflow bucket and quantiles there report the observed maximum.
var latencyBucketsMillis = []float64{
	0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
}

// histogram is a fixed-bucket latency histogram. Quantiles are estimated by
// linear interpolation inside the bucket holding the target rank — exact
// enough for p50/p99 dashboards, constant memory regardless of traffic.
type histogram struct {
	mu     sync.Mutex
	counts []int64 // one per bucket plus overflow; allocated on first use
	count  int64
	sumMs  float64
	maxMs  float64
}

// LatencySummary is the rendered form of one histogram.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
	Mean  float64 `json:"mean_ms"`
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]int64, len(latencyBucketsMillis)+1)
	}
	i := 0
	for i < len(latencyBucketsMillis) && ms > latencyBucketsMillis[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sumMs += ms
	if ms > h.maxMs {
		h.maxMs = ms
	}
}

// quantileLocked returns the estimated q-quantile in milliseconds.
func (h *histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = latencyBucketsMillis[i-1]
			}
			hi := h.maxMs
			if i < len(latencyBucketsMillis) && latencyBucketsMillis[i] < hi {
				hi = latencyBucketsMillis[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.maxMs
}

func (h *histogram) summary() LatencySummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := LatencySummary{Count: h.count, Max: h.maxMs}
	if h.count > 0 {
		s.P50 = h.quantileLocked(0.50)
		s.P90 = h.quantileLocked(0.90)
		s.P99 = h.quantileLocked(0.99)
		s.Mean = h.sumMs / float64(h.count)
	}
	return s
}

// metrics is the service-wide registry: per-endpoint latency histograms,
// request/error counters, and the cumulative analysis statistics aggregated
// through the facade's Stats.Add hooks.
type metrics struct {
	analyze, seed, advance histogram

	mu       sync.Mutex
	requests map[string]int64 // endpoint -> served count (incl. failures)
	errors   map[string]int64 // error code -> count
	// totals accumulates every successful run's Stats (solver and memo
	// blocks included), the cross-request view /metrics serves.
	totals dise.Stats
	// panics counts handler panics the recovery middleware contained;
	// shutdownRejects counts requests refused with 503 during a drain.
	panics          int64
	shutdownRejects int64
}

// observePanic records one contained handler panic.
func (m *metrics) observePanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
	m.errors["internal_error"]++
}

// observeReject records one request refused because the service is
// draining.
func (m *metrics) observeReject() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shutdownRejects++
	m.errors["shutting_down"]++
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]int64),
		errors:   make(map[string]int64),
	}
}

// observe records one request: its endpoint, latency, and either the error
// code or the successful run's statistics.
func (m *metrics) observe(endpoint string, d time.Duration, stats *dise.Stats, errCode string) {
	switch endpoint {
	case "analyze":
		m.analyze.observe(d)
	case "create":
		m.seed.observe(d)
	case "advance":
		m.advance.observe(d)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[endpoint]++
	if errCode != "" {
		m.errors[errCode]++
	}
	if stats != nil {
		m.totals.Add(*stats)
	}
}

// MemoryStats is the runtime-memory block of /metrics; SessionsPerGB is the
// store occupancy divided by heap-in-use gigabytes, a capacity-planning
// figure.
type MemoryStats struct {
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	SysBytes       uint64  `json:"sys_bytes"`
	NumGoroutine   int     `json:"num_goroutine"`
	SessionsPerGB  float64 `json:"sessions_per_gb"`
}

// Metrics is the full /metrics payload.
type Metrics struct {
	UptimeMillis int64 `json:"uptime_ms"`

	Sessions  StoreStats     `json:"sessions"`
	Admission AdmissionStats `json:"admission"`

	Latency struct {
		Analyze LatencySummary `json:"analyze"`
		Seed    LatencySummary `json:"seed"`
		Advance LatencySummary `json:"advance"`
	} `json:"latency"`

	Requests map[string]int64 `json:"requests"`
	Errors   map[string]int64 `json:"errors"`

	// PanicsRecovered counts handler panics the recovery middleware
	// contained (each also served a 500 internal_error envelope);
	// ShutdownRejects counts requests refused with 503 shutting_down
	// after BeginShutdown.
	PanicsRecovered int64 `json:"panics_recovered"`
	ShutdownRejects int64 `json:"shutdown_rejects"`

	// SolverStats, MemoStats and MergeStats are the cumulative per-run
	// statistics of every successful analysis, aggregated via
	// dise.Stats.Add; ParseCache and PrefixCache snapshot the two
	// cross-tenant shared caches. Unlike per-run Stats — whose zero-valued
	// sub-blocks are omitted uniformly — the cumulative dashboard always
	// carries all three blocks, so collectors see a stable shape.
	SolverStats dise.SolverStats `json:"solver_stats"`
	MemoStats   dise.MemoStats   `json:"memo_stats"`
	MergeStats  dise.MergeStats  `json:"merge_stats"`
	Totals      struct {
		StatesExplored     int   `json:"states_explored"`
		PathConditions     int   `json:"path_conditions"`
		InfeasibleBranches int   `json:"infeasible_branches"`
		AnalysisMillis     int64 `json:"analysis_ms"`
	} `json:"totals"`
	ParseCache  dise.CacheStats `json:"parse_cache"`
	PrefixCache dise.CacheStats `json:"prefix_cache"`

	Memory MemoryStats `json:"memory"`
	// MemoryBreakdown attributes long-lived memory to its subsystems
	// (intern table, memo tries, shared caches).
	MemoryBreakdown MemoryBreakdown `json:"memory_breakdown"`
}

// MemoryBreakdown decomposes the process's long-lived memory by subsystem,
// so sessions_per_gb is explainable instead of one opaque heap figure. All
// byte figures are the subsystems' own approximate estimators, not heap
// measurements; they will not sum to heap_inuse_bytes.
type MemoryBreakdown struct {
	// The global hash-consing intern table: live entries, approximate
	// bytes, the current collection epoch, and cumulative built/collected
	// counters (collection runs only when intern GC is enabled).
	InternEntries   int    `json:"intern_entries"`
	InternBytes     int64  `json:"intern_bytes_approx"`
	InternEpoch     uint64 `json:"intern_epoch"`
	InternBuilt     uint64 `json:"intern_built"`
	InternCollected uint64 `json:"intern_collected"`
	// The resident sessions' memo tries, summed across tenants (the store's
	// cached per-entry figures).
	TrieNodes int64 `json:"trie_nodes"`
	TrieBytes int64 `json:"trie_bytes_approx"`
	// The two cross-tenant shared caches.
	PrefixCacheBytes int64 `json:"prefix_cache_bytes_approx"`
	ParseCacheBytes  int64 `json:"parse_cache_bytes_approx"`
}

// snapshot builds the /metrics payload.
func (s *Service) snapshot() Metrics {
	var out Metrics
	out.UptimeMillis = s.cfg.now().Sub(s.started).Milliseconds()
	out.Sessions = s.store.stats()
	out.Admission = s.adm.stats()
	out.Latency.Analyze = s.metrics.analyze.summary()
	out.Latency.Seed = s.metrics.seed.summary()
	out.Latency.Advance = s.metrics.advance.summary()

	s.metrics.mu.Lock()
	out.Requests = make(map[string]int64, len(s.metrics.requests))
	for k, v := range s.metrics.requests {
		out.Requests[k] = v
	}
	out.Errors = make(map[string]int64, len(s.metrics.errors))
	for k, v := range s.metrics.errors {
		out.Errors[k] = v
	}
	totals := s.metrics.totals
	out.PanicsRecovered = s.metrics.panics
	out.ShutdownRejects = s.metrics.shutdownRejects
	s.metrics.mu.Unlock()

	out.SolverStats = totals.Solver
	out.MemoStats = totals.Memo
	out.MergeStats = totals.Merge
	out.Totals.StatesExplored = totals.StatesExplored
	out.Totals.PathConditions = totals.PathConditions
	out.Totals.InfeasibleBranches = totals.InfeasibleBranches
	out.Totals.AnalysisMillis = totals.TimeMilliseconds

	out.ParseCache = s.analyzer.CacheStats()
	out.PrefixCache = s.analyzer.SolverCacheStats()

	intern := sym.InternTableStats()
	out.MemoryBreakdown = MemoryBreakdown{
		InternEntries:    intern.Entries,
		InternBytes:      intern.ApproxBytes,
		InternEpoch:      intern.Epoch,
		InternBuilt:      intern.Interned,
		InternCollected:  intern.Collected,
		TrieNodes:        out.Sessions.TrieNodes,
		TrieBytes:        out.Sessions.TrieBytes,
		PrefixCacheBytes: out.PrefixCache.Bytes,
		ParseCacheBytes:  out.ParseCache.Bytes,
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.Memory = MemoryStats{
		HeapAllocBytes: ms.HeapAlloc,
		HeapInuseBytes: ms.HeapInuse,
		SysBytes:       ms.Sys,
		NumGoroutine:   runtime.NumGoroutine(),
	}
	if gb := float64(ms.HeapInuse) / (1 << 30); gb > 0 && out.Sessions.Occupancy > 0 {
		out.Memory.SessionsPerGB = float64(out.Sessions.Occupancy) / gb
	}
	return out
}
