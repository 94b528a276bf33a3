// Command dised is the long-lived multi-tenant analysis service: an
// HTTP/JSON daemon over internal/service that holds many concurrent
// version-chain sessions, with a tenant-keyed TTL+LRU session store,
// admission control with per-request deadlines, and /metrics observability.
// See the "Analysis service" section of the README for the API.
//
// Usage:
//
//	dised [-addr HOST:PORT] [-port-file PATH]
//	      [-max-sessions N] [-sessions-per-tenant N] [-session-ttl D]
//	      [-max-inflight N] [-max-queue N] [-deadline D] [-max-deadline D]
//	      [-solver NAME] [-smt-solver PATH]
//	      [-depth N] [-max-states N]
//	      [-max-trie-nodes N] [-max-trie-bytes N] [-intern-gc-epochs N]
//	      [-cache-bytes N] [-merge-bound N] [-drain-timeout D]
//
// SIGINT/SIGTERM shut the server down gracefully: the daemon stops
// accepting (new requests are rejected with 503 shutting_down), in-flight
// analyses get -drain-timeout to finish, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"dise"
	"dise/internal/service"
	"dise/internal/symexec"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	portFile := flag.String("port-file", "", "write the bound address to this file once listening (for scripts driving a random port)")
	maxSessions := flag.Int("max-sessions", 0, "session store capacity; beyond it the least-recently-used session is evicted (0 = default 1024)")
	perTenant := flag.Int("sessions-per-tenant", 0, "per-tenant session cap (0 = default 64)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle time after which a session expires (0 = default 30m)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrently running analyses (0 = default 4)")
	maxQueue := flag.Int("max-queue", 0, "admitted requests that may wait for a slot (0 = default 64)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = default 30s)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on client-requested deadlines (0 = default 2m)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "time in-flight requests get to finish after SIGTERM/SIGINT before the server gives up on them")
	depth := flag.Int("depth", 0, "symbolic execution depth bound (0 = default)")
	maxStates := flag.Int("max-states", 0, "states explored per request before BudgetExhausted (0 = no cap)")
	solverName := flag.String("solver", "", fmt.Sprintf("constraint-solving backend %v (default %q)", dise.SolverBackends(), "interval"))
	smtSolver := flag.String("smt-solver", "", "path to an SMT-LIB2 solver binary for the smtlib backend (default: discover on PATH; absent binary degrades to the in-process fallback)")
	maxTrieNodes := flag.Int("max-trie-nodes", 0, "per-session memo-trie node budget; cold subtrees are evicted after each step (0 = unbounded)")
	maxTrieBytes := flag.Int64("max-trie-bytes", 0, "global ceiling on all resident sessions' memo-trie bytes; LRU sessions are evicted under pressure (0 = unbounded)")
	internGCEpochs := flag.Int("intern-gc-epochs", 0, "collect intern-table entries untouched for this many completed runs (0 = collection off)")
	cacheBytes := flag.Int64("cache-bytes", 0, "approximate byte budget shared by the parse/CFG and solved-prefix caches (0 = entry-count bounds only)")
	mergeBound := flag.Int("merge-bound", 0, "default bounded state merging for one-shot /v1/analyze requests without a merge_bound (0 = off, -1 = unbounded, >= 2 = bounded); sessions never merge")
	flag.Parse()

	if *solverName != "" && !slices.Contains(dise.SolverBackends(), *solverName) {
		fmt.Fprintf(os.Stderr, "dised: %v: -solver %q is not a backend (have %v)\n",
			dise.ErrInvalidConfig, *solverName, dise.SolverBackends())
		os.Exit(2)
	}
	if err := symexec.CheckMergeBound(*mergeBound); err != nil {
		fmt.Fprintf(os.Stderr, "dised: %v: -merge-bound: %v\n", dise.ErrInvalidConfig, err)
		os.Exit(2)
	}

	// The memory bounds are validated up front, like the solver name above:
	// a negative bound is an unusable configuration, so it fails startup
	// with the facade's InvalidConfig kind instead of surfacing on the
	// first request.
	for _, b := range []struct {
		name  string
		value int64
	}{
		{"-max-trie-nodes", int64(*maxTrieNodes)},
		{"-max-trie-bytes", *maxTrieBytes},
		{"-intern-gc-epochs", int64(*internGCEpochs)},
		{"-cache-bytes", *cacheBytes},
	} {
		if b.value < 0 {
			fmt.Fprintf(os.Stderr, "dised: %v: %s must be >= 0 (0 disables the bound), got %d\n",
				dise.ErrInvalidConfig, b.name, b.value)
			os.Exit(2)
		}
	}

	svc := service.New(service.Config{
		MaxSessions:          *maxSessions,
		MaxSessionsPerTenant: *perTenant,
		SessionTTL:           *sessionTTL,
		MaxInFlight:          *maxInFlight,
		MaxQueue:             *maxQueue,
		DefaultDeadline:      *deadline,
		MaxDeadline:          *maxDeadline,
		MaxTrieBytes:         *maxTrieBytes,
		DefaultMergeBound:    *mergeBound,
		AnalyzerOptions: []dise.Option{
			dise.WithDepthBound(*depth),
			dise.WithMaxStates(*maxStates),
			dise.WithSolverBackend(*solverName),
			dise.WithSMTSolver(*smtSolver),
			dise.WithMemoNodeBudget(*maxTrieNodes),
			dise.WithInternGC(*internGCEpochs),
			dise.WithCacheByteBudget(*cacheBytes),
		},
	})
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dised:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dised:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "dised: listening on %s\n", bound)

	srv := &http.Server{Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "dised:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Graceful drain: reject new work at the service layer first (503
		// shutting_down, so clients on kept-alive connections get a clean
		// answer), then stop the listener and wait out the in-flight
		// requests. A drain that outlives the timeout is reported but is
		// still a clean exit — the remaining requests lose their connection,
		// which at that point is the contract.
		fmt.Fprintln(os.Stderr, "dised: shutting down (draining in-flight requests)")
		svc.BeginShutdown()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := svc.Drain(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "dised: drain timeout expired with requests still running")
		}
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "dised: forced shutdown:", err)
		}
		fmt.Fprintln(os.Stderr, "dised: drained, exiting")
	}
}
