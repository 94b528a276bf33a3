// Package service is the long-lived, multi-tenant analysis service behind
// cmd/dised: an HTTP/JSON front end over one shared dise.Analyzer that holds
// many concurrent version-chain sessions.
//
// The package supplies the three pieces a daemon needs on top of the
// facade's already concurrency-safe Analyzer:
//
//   - a tenant-keyed session store (store.go) with TTL expiry, global LRU
//     eviction and a per-tenant session cap, so thousands of chains can be
//     held without unbounded growth and one tenant cannot crowd out the
//     rest;
//   - admission control (admission.go): a bounded number of in-flight
//     analyses with a bounded wait queue, and a per-request deadline that
//     surfaces through the Analyzer's context plumbing as the existing
//     Cancelled error kind;
//   - metrics (metrics.go): per-endpoint latency histograms (p50/p99),
//     cumulative solver_stats/memo_stats aggregated with the facade's
//     Stats.Add hooks, store occupancy and eviction counters, queue depth,
//     and memory figures for sessions-per-GB accounting.
//
// Because every tenant's request runs on the one Analyzer, the parse/CFG
// cache and the content-keyed solver prefix cache are shared across
// tenants: PrefixCache entries are keyed by constraint content, not program
// version or requester, so one tenant's solved prefixes warm another
// tenant's identical constraints.
package service

import (
	"context"
	"net/http"
	"sync"
	"time"

	"dise"
)

// Config tunes a Service. The zero value selects serviceable defaults for
// every field.
type Config struct {
	// MaxSessions bounds the session store; adding a session beyond it
	// evicts the least-recently-used one. Default 1024.
	MaxSessions int
	// MaxSessionsPerTenant caps one tenant's share of the store; creation
	// beyond it is rejected (HTTP 429). Default 64.
	MaxSessionsPerTenant int
	// SessionTTL expires sessions idle longer than this. Default 30m.
	SessionTTL time.Duration
	// SweepInterval is how often the janitor collects expired sessions
	// (expiry is also enforced lazily on access). Default 1m.
	SweepInterval time.Duration
	// MaxInFlight bounds concurrently running analyses (one-shot analyses,
	// session seeds and advances all count). Default 4.
	MaxInFlight int
	// MaxQueue bounds how many admitted requests may wait for an in-flight
	// slot; requests beyond it are rejected immediately (HTTP 429).
	// Default 64.
	MaxQueue int
	// DefaultDeadline is the per-request deadline applied when the request
	// names none. Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines. Default 2m.
	MaxDeadline time.Duration
	// MaxTrieBytes is the global ceiling on the resident sessions' summed
	// memo-trie bytes; under pressure the store evicts least-recently-used
	// sessions before rejecting anything. 0 = unbounded.
	MaxTrieBytes int64
	// DefaultMergeBound applies bounded state merging to one-shot
	// /v1/analyze requests that carry no merge_bound of their own
	// (0 = off, dise.MergeUnbounded = unbounded, >= 2 = bounded). Session
	// endpoints are unaffected: merging is incompatible with memoized
	// version chains, so it is never a session default.
	DefaultMergeBound int
	// AnalyzerOptions configures the shared Analyzer: solver backend,
	// bounds, cache capacities, and the memory bounds the Analyzer enforces
	// itself (dise.WithMemoNodeBudget, WithInternGC, WithCacheByteBudget).
	AnalyzerOptions []dise.Option

	// now overrides the clock in tests (nil means time.Now).
	now func() time.Time
}

func (c *Config) defaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxSessionsPerTenant <= 0 {
		c.MaxSessionsPerTenant = 64
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = time.Minute
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Service is the analysis daemon's engine room: one shared Analyzer, the
// session store, the admission controller and the metrics registry. It is
// safe for concurrent use; construct with New, serve Handler, and Close on
// shutdown.
type Service struct {
	cfg      Config
	analyzer *dise.Analyzer
	store    *sessionStore
	adm      *admission
	metrics  *metrics
	started  time.Time
	gate     drainGate
}

// drainGate tracks in-flight requests for graceful shutdown. Once draining,
// new requests are rejected at the front door (503 shutting_down) while
// requests already past it run to completion; Drain blocks until the last
// one leaves (or the context expires).
type drainGate struct {
	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // lazily built; closed once draining with no in-flight
	closed   bool
}

// enter admits one request into the gate; false means the service is
// draining and the request must be rejected.
func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

// exit retires one admitted request, releasing Drain when the last one
// leaves after shutdown began.
func (g *drainGate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if g.draining && g.inflight == 0 {
		g.releaseLocked()
	}
}

// begin flips the gate to draining and returns a channel closed once no
// admitted request remains (already closed if none is running).
func (g *drainGate) begin() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	if g.inflight == 0 {
		g.releaseLocked()
	}
	return g.idle
}

func (g *drainGate) releaseLocked() {
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	if !g.closed {
		close(g.idle)
		g.closed = true
	}
}

// New builds a Service and starts its session-store janitor. The caller
// owns the returned Service and must Close it to release the janitor.
func New(cfg Config) *Service {
	cfg.defaults()
	s := &Service{
		cfg:      cfg,
		analyzer: dise.NewAnalyzer(cfg.AnalyzerOptions...),
		store:    newSessionStore(cfg.MaxSessions, cfg.MaxSessionsPerTenant, cfg.SessionTTL, cfg.MaxTrieBytes, cfg.now),
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		metrics:  newMetrics(),
		started:  cfg.now(),
	}
	s.store.startJanitor(cfg.SweepInterval)
	return s
}

// Analyzer exposes the shared Analyzer (read-only use: cache statistics).
func (s *Service) Analyzer() *dise.Analyzer { return s.analyzer }

// Close stops the background janitor and drops every stored session. It
// does not interrupt in-flight requests; the HTTP server's own shutdown
// handles those.
func (s *Service) Close() {
	s.store.close()
}

// Handler returns the service's HTTP handler (see http.go for the routes),
// wrapped in the panic-recovery and shutdown-drain middleware.
func (s *Service) Handler() http.Handler { return s.withRecovery(s.withDrain(s.routes())) }

// BeginShutdown puts the service into draining mode: every request that
// arrives after this call is rejected with 503 shutting_down, while
// requests already executing continue undisturbed. Idempotent.
func (s *Service) BeginShutdown() { s.gate.begin() }

// Drain blocks until every in-flight request has completed or ctx expires
// (its error is returned in that case). Call BeginShutdown first; Drain on
// a service that is not draining waits for the signal that BeginShutdown
// would have sent and therefore only returns on ctx expiry.
func (s *Service) Drain(ctx context.Context) error {
	s.gate.mu.Lock()
	idle := s.gate.idle
	if idle == nil {
		s.gate.idle = make(chan struct{})
		idle = s.gate.idle
		if s.gate.draining && s.gate.inflight == 0 {
			s.gate.releaseLocked()
		}
	}
	s.gate.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// deadlineFor resolves one request's deadline: the client's requested
// deadline_ms clamped to MaxDeadline, or DefaultDeadline when absent.
func (s *Service) deadlineFor(requestedMillis int64) time.Duration {
	if requestedMillis <= 0 {
		return s.cfg.DefaultDeadline
	}
	d := time.Duration(requestedMillis) * time.Millisecond
	if d > s.cfg.MaxDeadline {
		return s.cfg.MaxDeadline
	}
	return d
}
