package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dise/internal/service"
)

// openLoopRate is the arrival rate R, in requests per second, of the open
// loop: about 60% of the capacity over maxConns connections (ops_per_s of a
// traced dised run, 195/s) the reference host reached at the commit that
// added this benchmark (README.md). It is part of the benchmark definition:
// both sides of a comparison run the same rate.
const openLoopRate = 120.0

// maxConns is the most requests the load generator has in flight at once,
// one per core of the reference host, so the client never queues more work
// on the daemon than the host can run.
const maxConns = 2

// openShare is the share of the run length the open loop takes; a closed
// loop over maxConns connections takes the rest.
const openShare = 0.6

const (
	disedTenants    = 8
	disedRandChains = 13
	disedRandSteps  = 6
	disedRandPairs  = 32
	// tenantSeed picks dised's random pairs from the input pool. The random
	// tenants are the same in every run: with 13 chains and 32 pairs, which
	// programs a run seed drew would decide much of the request mix.
	tenantSeed = 1
)

// disedW drives the real cmd/dised binary over HTTP: 16 resident sessions
// across 8 tenants (the three artifact chains and 13 random chains) take
// round-robin advances, mixed with one-shot analyses of artifact and random
// version pairs.
type disedW struct {
	o        *options
	chains   []chain
	pairs    []analyzePair
	d        *daemon
	client   *http.Client
	sessions []*remoteSession
	seedMs   []float64 // per set-up: summed seed time of the artifact sessions

	// obs maps each distinct request ("chain:from>to" or "pair:i") to the
	// output the daemon returned; verify checks each against a cold run.
	obsMu sync.Mutex
	obs   map[string]output
	obsIn map[string][3]string // key -> base, mod, proc
	diffs []string

	spanMu  sync.Mutex
	spans   []span
	opID    int
	epoch   time.Time
	tracing time.Duration // spent recording spans
}

type remoteSession struct {
	id     string
	tenant string
	chain  int
	cur    int // index of the session's current version in its chain
}

type analyzePair struct {
	id, tenant, base, mod, proc string
}

func newDised(o *options, pool *randomPool) *disedW {
	w := &disedW{o: o, chains: artifactChains(), obs: map[string]output{}, obsIn: map[string][3]string{}, epoch: time.Now()}
	for i, g := range pool.Chains[:disedRandChains] {
		w.chains = append(w.chains, randomChain(fmt.Sprintf("rand%d", i), g, disedRandSteps))
	}
	for ci, c := range w.chains[:3] {
		for i := 1; i < len(c.versions); i++ {
			w.pairs = append(w.pairs, analyzePair{id: c.opID(i), tenant: tenantName(ci), base: c.versions[0], mod: c.versions[i], proc: c.proc})
		}
	}
	src := pool.stream(tenantSeed)
	for i := 0; i < disedRandPairs; i++ {
		p, ok := src.pair()
		if !ok {
			break
		}
		w.pairs = append(w.pairs, analyzePair{id: fmt.Sprintf("g%d", p.gen), tenant: tenantName(i), base: p.base, mod: p.mod, proc: "p"})
	}
	return w
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i%disedTenants) }

// setup starts a daemon, waits for /healthz and seeds the 16 sessions. It
// replaces (and stops) the daemon of an earlier set-up.
func (w *disedW) setup() error {
	if w.d != nil {
		w.client.CloseIdleConnections()
		if err := w.d.stop(); err != nil {
			return err
		}
		w.d = nil
	}
	w.client = &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
	d, err := startDaemon(w.o.dised, w.o.work, w.client)
	if err != nil {
		return err
	}
	w.d = d
	w.sessions = nil
	seed := 0.0
	for ci, c := range w.chains {
		start := time.Now()
		var created service.CreateSessionResponse
		tenant := tenantName(ci)
		_, _, err := w.roundTrip("/v1/sessions", service.CreateSessionRequest{Tenant: tenant, InitialSrc: c.versions[0], Proc: c.proc}, &created)
		if err != nil {
			return fmt.Errorf("creating session %s: %w", c.name, err)
		}
		if ci < 3 {
			seed += msSince(start)
		}
		w.sessions = append(w.sessions, &remoteSession{id: created.SessionID, tenant: tenant, chain: ci})
	}
	w.seedMs = append(w.seedMs, seed)
	return nil
}

// call is one scheduled request: an advance of session sess, or a one-shot
// analysis of pairs[pair].
type call struct {
	advance bool
	sess    int
	pair    int
	due     time.Time
}

// mix is the request sequence: of every analyzeEvery calls, one analyzes
// the next pair and the others advance the next session, both in
// round-robin order from starting points the run seed picks.
type mix struct {
	n, sess, pair int
	w             *disedW
}

const analyzeEvery = 5 // 20% one-shot analyses, 80% advances

func (w *disedW) newMix() *mix {
	return &mix{sess: int(w.o.seed % int64(len(w.sessions))), pair: int(w.o.seed * 7 % int64(len(w.pairs))), w: w}
}

// period is the length of the shortest request sequence that analyzes
// every pair equally often and advances every session equally often,
// wherever the round-robins start.
func (m *mix) period() int {
	n := len(m.w.pairs) * analyzeEvery
	for n/analyzeEvery*(analyzeEvery-1)%len(m.w.sessions) != 0 {
		n += len(m.w.pairs) * analyzeEvery
	}
	return n
}

func (m *mix) draw() call {
	m.n++
	if m.n%analyzeEvery == 0 {
		m.pair++
		return call{pair: (m.pair - 1) % len(m.w.pairs)}
	}
	m.sess++
	return call{advance: true, sess: (m.sess - 1) % len(m.w.sessions)}
}

// gate limits the generator to maxConns requests in flight and one advance
// per session at a time; a call whose session is busy waits on the client
// side, and its latency keeps counting from its due time.
type gate struct {
	mu          sync.Mutex
	cond        *sync.Cond
	pending     []call
	closed      bool
	busy        map[int]bool
	inFlight    int
	inFlightMax int
}

func newGate() *gate {
	g := &gate{busy: map[int]bool{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// takeLocked marks c in flight; g.mu must be held.
func (g *gate) takeLocked(c call) {
	if c.advance {
		g.busy[c.sess] = true
	}
	g.inFlight++
	g.inFlightMax = max(g.inFlightMax, g.inFlight)
}

// next returns the oldest pending call whose session is free, waiting for
// one; false once the gate is closed and drained.
func (g *gate) next() (call, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		for i, c := range g.pending {
			if c.advance && g.busy[c.sess] {
				continue
			}
			g.pending = append(g.pending[:i], g.pending[i+1:]...)
			g.takeLocked(c)
			return c, true
		}
		if g.closed && len(g.pending) == 0 {
			return call{}, false
		}
		g.cond.Wait()
	}
}

func (g *gate) push(c call) {
	g.mu.Lock()
	g.pending = append(g.pending, c)
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *gate) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *gate) done(c call) {
	g.mu.Lock()
	if c.advance {
		delete(g.busy, c.sess)
	}
	g.inFlight--
	g.mu.Unlock()
	g.cond.Broadcast()
}

// phase collects one load phase's client-side measurements.
type phase struct {
	mu           sync.Mutex
	lat          []float64 // completion - due
	wait         []float64 // send - due
	wire         []float64 // HTTP round trip, body encoded to reply read
	json         []float64 // client-side JSON encode plus decode
	late         []float64 // generator lateness: dispatch - due
	done         work      // the answered requests' Stats
	failed       int
	firstErr     string
	inFlightMax  int
	wallDuration time.Duration
}

// stamps are the client-side timestamps of one request.
type stamps struct{ sent, encoded, answered, finished time.Time }

// record files one request.
func (p *phase) record(c call, t stamps, res *service.ResultPayload, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.failed++
		if p.firstErr == "" {
			p.firstErr = err.Error()
		}
		return
	}
	p.done.add(res.Stats)
	p.lat = append(p.lat, ms(t.finished.Sub(c.due)))
	p.wait = append(p.wait, ms(t.sent.Sub(c.due)))
	p.wire = append(p.wire, ms(t.answered.Sub(t.encoded)))
	p.json = append(p.json, ms(t.encoded.Sub(t.sent)+t.finished.Sub(t.answered)))
}

// openLoop sends n requests as Poisson arrivals at rate, timing every
// request from when it was due. The run seed drives the arrival times.
func (w *disedW) openLoop(n int, rate float64) *phase {
	rng := rand.New(rand.NewSource(w.o.seed))
	m := w.newMix()
	start := time.Now().Add(10 * time.Millisecond)
	calls := make([]call, n)
	t := 0.0
	for i := range calls {
		t += rng.ExpFloat64() / rate
		calls[i] = m.draw()
		calls[i].due = start.Add(time.Duration(t * float64(time.Second)))
	}
	p := &phase{}
	g := newGate()
	var wg sync.WaitGroup
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, ok := g.next()
				if !ok {
					return
				}
				w.do(c, p)
				g.done(c)
			}
		}()
	}
	for _, c := range calls {
		time.Sleep(time.Until(c.due))
		p.late = append(p.late, ms(time.Since(c.due)))
		g.push(c)
	}
	g.close()
	wg.Wait()
	p.inFlightMax = g.inFlightMax
	p.wallDuration = time.Since(start)
	return p
}

// closedLoop keeps conns requests in flight for dur: each connection sends
// its next request as soon as the previous one is answered.
func (w *disedW) closedLoop(dur time.Duration, conns int) *phase {
	m := w.newMix()
	p := &phase{}
	g := newGate()
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				g.mu.Lock()
				c := m.draw()
				for c.advance && g.busy[c.sess] {
					g.cond.Wait()
				}
				c.due = time.Now()
				g.takeLocked(c)
				g.mu.Unlock()
				w.do(c, p)
				g.done(c)
			}
		}()
	}
	wg.Wait()
	p.inFlightMax = g.inFlightMax
	p.wallDuration = time.Since(start)
	return p
}

// do sends one call and records its timings, its output and, in a traced
// run, its spans.
func (w *disedW) do(c call, p *phase) {
	sent := time.Now()
	var key, path string
	var body any
	var in [3]string
	var s *remoteSession
	var to int
	if c.advance {
		s = w.sessions[c.sess]
		ch := w.chains[s.chain]
		to = (s.cur + 1) % len(ch.versions)
		key = fmt.Sprintf("%s:%d>%d", ch.name, s.cur, to)
		in = [3]string{ch.versions[s.cur], ch.versions[to], ch.proc}
		path = "/v1/sessions/" + s.id + "/advance"
		body = service.AdvanceRequest{Tenant: s.tenant, NextSrc: ch.versions[to]}
	} else {
		pr := w.pairs[c.pair]
		key = "pair:" + pr.id
		in = [3]string{pr.base, pr.mod, pr.proc}
		path = "/v1/analyze"
		body = service.AnalyzeRequest{Tenant: pr.tenant, BaseSrc: pr.base, ModSrc: pr.mod, Proc: pr.proc}
	}
	var res service.ResultPayload
	t := stamps{sent: sent}
	var err error
	t.encoded, t.answered, err = w.roundTrip(path, body, &res)
	t.finished = time.Now()
	p.record(c, t, &res, err)
	if err != nil {
		return
	}
	if c.advance {
		s.cur = to
	}
	w.observe(key, in, facadeOutput(res.Paths, nil))
	if w.o.trace {
		recording := time.Now()
		w.spanMu.Lock()
		defer w.spanMu.Unlock()
		w.opID++
		id := w.opID
		ns := func(at time.Time) int64 { return int64(at.Sub(w.epoch)) }
		w.spans = append(w.spans,
			span{OpID: id, Name: "op", Start: ns(c.due), End: ns(t.finished)},
			span{OpID: id, Name: "loadgen.wait", Parent: "op", Start: ns(c.due), End: ns(t.sent)},
			span{OpID: id, Name: "client.encode", Parent: "op", Start: ns(t.sent), End: ns(t.encoded)},
			span{OpID: id, Name: "http", Parent: "op", Start: ns(t.encoded), End: ns(t.answered)},
			span{OpID: id, Name: "client.decode", Parent: "op", Start: ns(t.answered), End: ns(t.finished)},
		)
		w.tracing += time.Since(recording)
	}
}

// roundTrip posts body as JSON and decodes a 2xx reply into out. It returns
// when the body was encoded and when the reply was fully read.
func (w *disedW) roundTrip(path string, body, out any) (encoded, answered time.Time, err error) {
	buf, err := json.Marshal(body)
	encoded = time.Now()
	if err != nil {
		return encoded, encoded, err
	}
	resp, err := w.client.Post(w.d.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return encoded, time.Now(), err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	answered = time.Now()
	if err != nil {
		return encoded, answered, err
	}
	if resp.StatusCode >= 400 {
		var ep service.ErrorPayload
		_ = json.Unmarshal(reply, &ep) // an undecodable body still fails the call below
		return encoded, answered, fmt.Errorf("POST %s: status %d %s", path, resp.StatusCode, ep.Error.Code)
	}
	return encoded, answered, json.Unmarshal(reply, out)
}

func (w *disedW) observe(key string, in [3]string, got output) {
	w.obsMu.Lock()
	defer w.obsMu.Unlock()
	if prev, ok := w.obs[key]; ok && prev != got {
		w.diffs = append(w.diffs, fmt.Sprintf("%s answered %v, earlier %v", key, got, prev))
		return
	}
	w.obs[key] = got
	w.obsIn[key] = in
}

// verify checks every distinct request's answer against a cold in-process
// run of the same version pair.
func (w *disedW) verify(r *result) {
	for _, d := range w.diffs {
		r.problem("dised: %s", d)
	}
	keys := make([]string, 0, len(w.obs))
	for k := range w.obs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		in := w.obsIn[k]
		want, err := coldOutput(in[0], in[1], in[2])
		if err != nil {
			r.problem("dised: cold run of %s: %v", k, err)
			continue
		}
		if got := w.obs[k]; got != want {
			r.problem("dised: %s answered %v, cold run gives %v", k, got, want)
		}
	}
}

func (w *disedW) metrics() (service.Metrics, error) {
	var m service.Metrics
	resp, err := w.client.Get(w.d.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// openRequests is how many requests the open loop sends in a run of length
// run: whole periods of the request mix, so that every run sends every
// session and every pair the same number of times, about openShare of the
// run long at openLoopRate. A run too short for one period (-quick) sends
// part of one.
func openRequests(run time.Duration, period int) int {
	want := openShare * run.Seconds() * openLoopRate
	if n := int(math.Round(want/float64(period))) * period; n > 0 {
		return n
	}
	return max(1, int(math.Ceil(want)))
}

// runDised measures the daemon. Every run sets up a daemon several times
// (median reported), sends the open loop (Poisson arrivals at openLoopRate
// over up to maxConns connections, timed from when each request was due),
// then a closed loop over maxConns connections for the rest of the run
// length, and checks every answer against a cold in-process run. The work
// per op comes from the open loop, whose requests are the same in every
// run; a traced run also reports its latencies, the closed loop's
// throughput, and the service's own numbers.
func runDised(o *options) (r *result, err error) {
	if o.dised == "" {
		return nil, errors.New("the dised workload needs -dised PATH (a built cmd/dised)")
	}
	pool, err := loadPool()
	if err != nil {
		return nil, err
	}
	w := newDised(o, pool)
	defer func() {
		if w.d == nil {
			return
		}
		w.client.CloseIdleConnections()
		if stopErr := w.d.stop(); stopErr != nil && err == nil {
			r.problem("dised: %v", stopErr)
		}
	}()
	r = newResult("dised", o)
	var setups []float64
	for i := 0; i < o.setups(); i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.Metrics["setup_s"] = median(setups)

	m0, err := w.metrics()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	open := w.openLoop(openRequests(o.runLength(), w.newMix().period()), openLoopRate)
	m1, err := w.metrics()
	if err != nil {
		return nil, err
	}
	conc := w.closedLoop(max(o.runLength()-time.Since(start), o.runLength()/4), maxConns)
	m2, err := w.metrics()
	if err != nil {
		return nil, err
	}
	for _, p := range []*phase{open, conc} {
		r.Attempted += p.done.ops + p.failed
		r.Failed += p.failed
		if p.failed > 0 {
			r.problem("dised: %d requests failed, first: %s", p.failed, p.firstErr)
		}
	}
	if n := max(open.inFlightMax, conc.inFlightMax); n > maxConns {
		r.problem("load generator had %d requests in flight, limit %d", n, maxConns)
	}
	w.verify(r)

	r.Ops = len(open.lat)
	open.done.report(r)
	if !o.trace {
		return r, nil
	}

	handler := handlerMean(m0, m1)
	wait, wire, enc := mean(open.wait), mean(open.wire)-handler, mean(open.json)
	r.Metrics["op_p50_ms"] = quantile(open.lat, 0.50)
	r.Metrics["op_p90_ms"] = quantile(open.lat, 0.90)
	r.Metrics["ops_per_s"] = ratio(float64(conc.done.ops), conc.wallDuration.Seconds())
	r.Metrics["seed_ms"] = median(w.seedMs)
	r.Metrics["service.client_wait_ms"] = wait
	r.Metrics["service.handler_ms"] = handler
	r.Metrics["service.wire_ms"] = wire
	r.Metrics["service.queue_depth_max"] = float64(max(m0.Admission.QueueDepth, m1.Admission.QueueDepth, m2.Admission.QueueDepth))
	r.Metrics["service.rejected"] = float64(m2.Admission.RejectedQueueFull + m2.Admission.RejectedDeadline -
		m0.Admission.RejectedQueueFull - m0.Admission.RejectedDeadline)
	r.Metrics["service.parse_cache_hit_ratio"] = ratio(float64(m2.ParseCache.Hits-m0.ParseCache.Hits),
		float64(m2.ParseCache.Hits+m2.ParseCache.Misses-m0.ParseCache.Hits-m0.ParseCache.Misses))
	r.Metrics["service.prefix_cache_hit_ratio"] = ratio(float64(m2.PrefixCache.Hits-m0.PrefixCache.Hits),
		float64(m2.PrefixCache.Hits+m2.PrefixCache.Misses-m0.PrefixCache.Hits-m0.PrefixCache.Misses))
	replayed := m2.MemoStats.StatesReplayed - m0.MemoStats.StatesReplayed
	live := m2.MemoStats.StatesExploredLive - m0.MemoStats.StatesExploredLive
	r.Metrics["service.memo_replay_ratio"] = ratio(float64(replayed), float64(replayed+live))
	r.Metrics["service.heap_inuse_mb"] = float64(m2.Memory.HeapInuseBytes) / (1 << 20)
	r.Metrics["loadgen.late_p99_ms"] = quantile(open.late, 0.99)
	r.Metrics["loadgen.in_flight_max"] = float64(max(open.inFlightMax, conc.inFlightMax))
	// Tracing dised requests costs only the span recording, so the overhead
	// is that time against the traced requests' wall time.
	r.Metrics["trace.overhead_pct"] = 100 * ratio(ms(w.tracing), sum(open.lat)+sum(conc.lat))

	shares := []struct {
		name string
		v    float64
	}{{"loadgen.wait", wait}, {"service.handler", handler}, {"service.wire", wire}, {"client json", enc}}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].v > shares[j].v })
	var parts []string
	for _, s := range shares[:3] {
		parts = append(parts, fmt.Sprintf("%s %.3f ms/op", s.name, s.v))
	}
	r.Notes = append(r.Notes, fmt.Sprintf("top self-time layers, dised open-loop steady state at %.0f/s (%d requests): %s",
		openLoopRate, len(open.lat), strings.Join(parts, ", ")))
	path := o.spanPath("dised")
	if err := writeSpanFile(path, w.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%d spans written to %s", len(w.spans), path))
	return r, nil
}

// handlerMean is the daemon's mean handler time for analyses and advances
// between two /metrics snapshots.
func handlerMean(a, b service.Metrics) float64 {
	sumOf := func(l service.LatencySummary) float64 { return l.Mean * float64(l.Count) }
	n := b.Latency.Advance.Count + b.Latency.Analyze.Count - a.Latency.Advance.Count - a.Latency.Analyze.Count
	total := sumOf(b.Latency.Advance) + sumOf(b.Latency.Analyze) - sumOf(a.Latency.Advance) - sumOf(a.Latency.Analyze)
	return ratio(total, float64(n))
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// daemon is one running cmd/dised process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{}
	err    error // the process's exit status, set before exited closes
}

// startDaemon launches dised with its default flags on a random local port
// and waits until /healthz answers.
func startDaemon(bin, work string, client *http.Client) (*daemon, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	portFile := filepath.Join(work, fmt.Sprintf("dised-%d.port", os.Getpid()))
	_ = os.Remove(portFile) // a stale file from an earlier run may or may not exist
	defer os.Remove(portFile)
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-port-file", portFile)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dised: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if addr, err := os.ReadFile(portFile); err == nil && len(addr) > 0 {
			d.base = "http://" + strings.TrimSpace(string(addr))
			if resp, err := client.Get(d.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("dised exited during start-up (%v): %s", d.err, d.stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("dised did not answer /healthz within 20s")
		}
	}
}

// stop sends SIGTERM, waits for the drain (killing the process if it takes
// more than 10s) and reports a non-zero exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if the process already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("dised did not exit within 10s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("dised exited with %v: %s", d.err, d.stderr.String())
	}
	return nil
}
