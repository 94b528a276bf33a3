package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dise"
)

// Wire types of the HTTP/JSON API. Analysis requests carry the tenant in
// the body (every tenant-scoped endpoint), an optional per-request
// deadline_ms (clamped to the server's MaxDeadline), and the same fields
// the in-process API takes.

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	Tenant          string `json:"tenant"`
	BaseSrc         string `json:"base_src"`
	ModSrc          string `json:"mod_src"`
	Proc            string `json:"proc"`
	Interprocedural bool   `json:"interprocedural,omitempty"`
	// MergeBound enables bounded state merging for this request alone
	// (0 = off, -1 = unbounded, >= 2 = fuse at most N siblings per join).
	// One-shot analyses only: session endpoints reject merging, whose
	// factored path conditions the memo trie cannot key.
	MergeBound     int   `json:"merge_bound,omitempty"`
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// CreateSessionRequest is the body of POST /v1/sessions. Unless SkipSeed is
// set, creation runs the seeding full symbolic execution of the initial
// version and is admission-controlled like any analysis.
type CreateSessionRequest struct {
	Tenant          string `json:"tenant"`
	InitialSrc      string `json:"initial_src"`
	Proc            string `json:"proc"`
	Interprocedural bool   `json:"interprocedural,omitempty"`
	SkipSeed        bool   `json:"skip_seed,omitempty"`
	DeadlineMillis  int64  `json:"deadline_ms,omitempty"`
}

// CreateSessionResponse is the reply of POST /v1/sessions.
type CreateSessionResponse struct {
	SessionID string `json:"session_id"`
}

// AdvanceRequest is the body of POST /v1/sessions/{id}/advance.
type AdvanceRequest struct {
	Tenant         string `json:"tenant"`
	NextSrc        string `json:"next_src"`
	DeadlineMillis int64  `json:"deadline_ms,omitempty"`
}

// ResultPayload is the JSON form of a dise.Result, shared by /v1/analyze
// and /v1/sessions/{id}/advance. Its field set and tags are what the
// warm-path equivalence gate compares byte for byte against an in-process
// Session.Advance.
type ResultPayload struct {
	Paths                    []dise.PathInfo `json:"paths"`
	Stats                    dise.Stats      `json:"stats"`
	ChangedNodes             int             `json:"changed_nodes"`
	AffectedConditionalLines []int           `json:"affected_conditional_lines"`
	AffectedWriteLines       []int           `json:"affected_write_lines"`
}

// PayloadOf projects a Result onto the wire form — exported so clients (the
// load generator, the equivalence test) can build the reference payload
// from an in-process Result.
func PayloadOf(r *dise.Result) ResultPayload {
	return ResultPayload{
		Paths:                    r.Paths,
		Stats:                    r.Stats,
		ChangedNodes:             r.ChangedNodes,
		AffectedConditionalLines: r.AffectedConditionalLines,
		AffectedWriteLines:       r.AffectedWriteLines,
	}
}

// ErrorPayload is the JSON error envelope: a stable machine-readable code
// (dise.ErrorKind.Code or a service-level code) plus the rendered message.
type ErrorPayload struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the body of an ErrorPayload.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// HealthResponse is the reply of GET /healthz.
type HealthResponse struct {
	Status       string `json:"status"`
	UptimeMillis int64  `json:"uptime_ms"`
	Sessions     int    `json:"sessions"`
}

// statusOf maps an error to its HTTP status and wire code. Analysis errors
// route through the dise kind sentinels (errors.Is), service errors through
// their own sentinels: client-caused analysis failures are 422 (the request
// was well-formed JSON but the program in it is unusable), deadline expiry
// — queued or mid-analysis — is 504, overload is 429, and an unknown or
// evicted session is 404.
func statusOf(err error) (int, string) {
	switch {
	case errors.Is(err, dise.ErrParse):
		return http.StatusUnprocessableEntity, dise.ParseError.Code()
	case errors.Is(err, dise.ErrType):
		return http.StatusUnprocessableEntity, dise.TypeError.Code()
	case errors.Is(err, dise.ErrUnknownProc):
		return http.StatusUnprocessableEntity, dise.UnknownProc.Code()
	case errors.Is(err, dise.ErrBudgetExhausted):
		return http.StatusUnprocessableEntity, dise.BudgetExhausted.Code()
	case errors.Is(err, dise.ErrCancelled),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, dise.Cancelled.Code()
	case errors.Is(err, dise.ErrInvalidConfig):
		return http.StatusInternalServerError, dise.InvalidConfig.Code()
	case errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, errSessionCap):
		return http.StatusTooManyRequests, "session_cap"
	case errors.Is(err, errSessionNotFound):
		return http.StatusNotFound, "session_not_found"
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, "bad_request"
	}
	return http.StatusInternalServerError, "internal"
}

// errBadRequest classifies malformed bodies and missing required fields.
var errBadRequest = errors.New("bad request")

// errShuttingDown rejects requests arriving after BeginShutdown.
var errShuttingDown = errors.New("service is shutting down")

// maxBodyBytes bounds request bodies (source texts are small; 8 MiB is
// generous) so a misbehaving client cannot balloon the daemon.
const maxBodyBytes = 8 << 20

// routes builds the service mux.
func (s *Service) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("POST /v1/sessions/{id}/advance", s.handleAdvance)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// withDrain is the graceful-shutdown front door: it tracks every request
// in the drain gate and, once BeginShutdown has been called, rejects new
// arrivals with 503 shutting_down while the ones already inside finish.
// The health endpoint stays open so orchestrators can watch the drain.
func (s *Service) withDrain(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			// /healthz and /metrics are read-only and cheap; keeping them
			// available during the drain is what makes it observable.
			next.ServeHTTP(w, r)
			return
		}
		if !s.gate.enter() {
			s.metrics.observeReject()
			writeError(w, errShuttingDown)
			return
		}
		defer s.gate.exit()
		next.ServeHTTP(w, r)
	})
}

// withRecovery contains handler panics: the client gets a 500 with the
// standard error envelope instead of a torn connection, the counter moves
// (/metrics panics_recovered), and the daemon lives on. The recovery sits
// outside withDrain so a panicking handler still exits the drain gate via
// its own defer before this one fires.
func (s *Service) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.observePanic()
				// The handler may have panicked after starting its reply;
				// WriteHeader on a started response is a no-op plus a log
				// line, which is the best that can be done at this point.
				writeJSON(w, http.StatusInternalServerError, ErrorPayload{Error: ErrorDetail{
					Code:    "internal_error",
					Message: fmt.Sprintf("internal error: recovered from panic: %v", rec),
				}})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// decode reads one JSON body into dst.
func decode(r *http.Request, dst any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return fmt.Errorf("%w: reading body: %v", errBadRequest, err)
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("%w: invalid JSON: %v", errBadRequest, err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // a failed write means the client left
}

func writeError(w http.ResponseWriter, err error) {
	status, code := statusOf(err)
	writeJSON(w, status, ErrorPayload{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// requireFields validates that every named field is non-empty.
func requireFields(fields map[string]string) error {
	for _, name := range []string{"tenant", "base_src", "mod_src", "initial_src", "next_src", "proc"} {
		if v, ok := fields[name]; ok && v == "" {
			return fmt.Errorf("%w: missing required field %q", errBadRequest, name)
		}
	}
	return nil
}

// admit takes a deadline-bounded context and an admission slot for one
// analysis. The returned release frees both and is idempotent: handlers
// call it as soon as the analysis returns, before encoding the response, so
// the in-flight gauge counts running analyses only and a client that has
// its response never sees its own request in flight; a deferred call covers
// the panic path. Errors are already classified for statusOf.
func (s *Service) admit(r *http.Request, deadlineMillis int64) (context.Context, func(), error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(deadlineMillis))
	if err := s.adm.acquire(ctx); err != nil {
		cancel()
		return nil, nil, err
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			s.adm.release()
			cancel()
		})
	}
	return ctx, release, nil
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req AnalyzeRequest
	err := decode(r, &req)
	if err == nil {
		err = requireFields(map[string]string{
			"tenant": req.Tenant, "base_src": req.BaseSrc, "mod_src": req.ModSrc, "proc": req.Proc,
		})
	}
	// A bad merge bound is client input, not server misconfiguration:
	// reject it here as 400 instead of letting the engine's InvalidConfig
	// surface as 500.
	if err == nil && (req.MergeBound == 1 || req.MergeBound < -1) {
		err = fmt.Errorf("%w: merge_bound %d out of range (0 = off, -1 = unbounded, >= 2 = bounded)",
			errBadRequest, req.MergeBound)
	}
	if err != nil {
		s.fail(w, "analyze", start, err)
		return
	}
	ctx, release, err := s.admit(r, req.DeadlineMillis)
	if err != nil {
		s.fail(w, "analyze", start, err)
		return
	}
	defer release()
	mergeBound := req.MergeBound
	if mergeBound == 0 {
		mergeBound = s.cfg.DefaultMergeBound
	}
	res, err := s.analyzer.Analyze(ctx, dise.Request{
		BaseSrc:         req.BaseSrc,
		ModSrc:          req.ModSrc,
		Proc:            req.Proc,
		Interprocedural: req.Interprocedural,
		MergeBound:      mergeBound,
	})
	release()
	if err != nil {
		s.fail(w, "analyze", start, err)
		return
	}
	s.metrics.observe("analyze", time.Since(start), &res.Stats, "")
	writeJSON(w, http.StatusOK, PayloadOf(res))
}

func (s *Service) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req CreateSessionRequest
	err := decode(r, &req)
	if err == nil {
		err = requireFields(map[string]string{
			"tenant": req.Tenant, "initial_src": req.InitialSrc, "proc": req.Proc,
		})
	}
	if err != nil {
		s.fail(w, "create", start, err)
		return
	}
	// Reserve the tenant's slot before the seed run, so a burst of creates
	// cannot overshoot the cap while their seeds execute.
	if err := s.store.reserve(req.Tenant); err != nil {
		s.fail(w, "create", start, err)
		return
	}
	ctx, release, err := s.admit(r, req.DeadlineMillis)
	if err != nil {
		s.store.unreserve(req.Tenant)
		s.fail(w, "create", start, err)
		return
	}
	defer release()
	sess, err := s.analyzer.NewSession(ctx, dise.SessionRequest{
		InitialSrc:      req.InitialSrc,
		Proc:            req.Proc,
		Interprocedural: req.Interprocedural,
		SkipSeed:        req.SkipSeed,
	})
	release()
	if err != nil {
		s.store.unreserve(req.Tenant)
		s.fail(w, "create", start, err)
		return
	}
	id := s.store.commit(req.Tenant, req.Proc, sess)
	s.metrics.observe("create", time.Since(start), nil, "")
	writeJSON(w, http.StatusCreated, CreateSessionResponse{SessionID: id})
}

func (s *Service) handleAdvance(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req AdvanceRequest
	err := decode(r, &req)
	if err == nil {
		err = requireFields(map[string]string{"tenant": req.Tenant, "next_src": req.NextSrc})
	}
	if err != nil {
		s.fail(w, "advance", start, err)
		return
	}
	entry, err := s.store.get(r.PathValue("id"), req.Tenant)
	if err != nil {
		s.fail(w, "advance", start, err)
		return
	}
	ctx, release, err := s.admit(r, req.DeadlineMillis)
	if err != nil {
		s.fail(w, "advance", start, err)
		return
	}
	defer release()
	// The session serializes concurrent Advances internally; the store may
	// evict the entry while this runs (the session object stays valid, the
	// ID just stops resolving afterwards).
	res, err := entry.sess.Advance(ctx, req.NextSrc)
	release()
	if err != nil {
		s.fail(w, "advance", start, err)
		return
	}
	// Refresh the store's cached trie usage (and relieve global trie-byte
	// pressure) now that the step grew or shrank the trie.
	nodes, bytes := entry.sess.MemoUsage()
	s.store.updateUsage(entry, nodes, bytes)
	s.metrics.observe("advance", time.Since(start), &res.Stats, "")
	writeJSON(w, http.StatusOK, PayloadOf(res))
}

func (s *Service) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		writeError(w, fmt.Errorf("%w: missing required query parameter \"tenant\"", errBadRequest))
		return
	}
	if err := s.store.remove(r.PathValue("id"), tenant); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:       "ok",
		UptimeMillis: s.cfg.now().Sub(s.started).Milliseconds(),
		Sessions:     s.store.stats().Occupancy,
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

// fail records one failed request in the metrics and writes its error
// envelope.
func (s *Service) fail(w http.ResponseWriter, endpoint string, start time.Time, err error) {
	_, code := statusOf(err)
	s.metrics.observe(endpoint, time.Since(start), nil, code)
	writeError(w, err)
}
