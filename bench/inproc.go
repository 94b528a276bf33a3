package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"dise"
	"dise/internal/testgen"
)

// opResult is one timed op of a pass.
type opResult struct {
	id string
	// idx is the op's position in the workload's golden file, -1 for ops
	// golden files do not cover (chain seeds).
	idx int
	in  string // inputDigest of the op's sources
	ms  float64
	out output
	st  dise.Stats // the op's Stats (public-API ops)
	err error
	// overlap marks a traced op whose layer spans summed past its wall time.
	overlap bool
}

// passResult is one pass of an in-process workload.
type passResult struct {
	ops    []opResult
	seedMs float64 // chain: summed seed time of the pass's sessions
}

// inproc is a workload that calls the dise package in this process, one op
// at a time from one goroutine (a closed loop with one client).
type inproc interface {
	// setup builds the workload's long-lived state and runs its warm-up.
	setup() error
	// prepare generates the inputs of pass k, before the pass's timing and
	// the collection that precedes it; false when there are no more inputs.
	prepare(k int) bool
	// facadePass runs pass k through the public API. A non-nil probe is
	// called between ops wherever the workload holds the most state (after
	// each artifact's last op, before its Analyzer is dropped).
	facadePass(k int, probe func()) passResult
	// mirrorPass runs the same ops as facadePass(k) through the traced
	// pipeline; it is called right after facadePass(k).
	mirrorPass(k int, tr *tracer) passResult
	// verify runs the post-measurement output checks.
	verify(r *result)
}

// runInproc measures one in-process workload: set-up (repeated, median
// reported), then whole passes until the run length is spent. A traced run
// follows every public-API pass with the same pass through the traced
// pipeline and requires identical outputs op by op.
func runInproc(name string, w inproc, o *options) (*result, error) {
	r := newResult(name, o)
	g, err := loadGolden(name)
	if err != nil {
		return nil, err
	}
	if name == "randcold" && o.seed != defaultSeed {
		g = &golden{} // the golden file pins the default seed's stream only
	}

	var setups []float64
	for i := 0; i < o.setups(); i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.Metrics["setup_s"] = median(setups)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var (
		lat                 []float64
		wall                time.Duration // the public-API passes, heap probes left out
		done                work
		seeds               []float64
		tracedMs, plainMs   float64
		rt                  meter
		probe               func()
		overlaps, mismatch  int
		firstMismatch, fail string
	)
	if tr != nil {
		probe = rt.probe
	}
	deadline := time.Now().Add(o.runLength())
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		if !w.prepare(k) {
			r.Notes = append(r.Notes, fmt.Sprintf("the input pool was spent after %d passes", k))
			break
		}
		// Every pass starts from a collected heap, so no pass pays for the
		// garbage of the one before or of its input generation; the
		// collections are not timed.
		runtime.GC()
		probed := rt.probed
		rt.start()
		start := time.Now()
		p := w.facadePass(k, probe)
		wall += time.Since(start) - (rt.probed - probed)
		rt.stop(len(p.ops))
		for _, op := range p.ops {
			r.Attempted++
			if op.err != nil {
				r.Failed++
				if fail == "" {
					fail = fmt.Sprintf("%s: %v", op.id, op.err)
				}
				continue
			}
			lat = append(lat, op.ms)
			done.add(op.st)
			if op.idx >= 0 {
				g.check(op.idx, op.id, op.in, op.out)
			}
		}
		if p.seedMs > 0 {
			seeds = append(seeds, p.seedMs)
		}
		if tr == nil {
			continue
		}
		runtime.GC()
		tp := w.mirrorPass(k, tr)
		for i, op := range tp.ops {
			r.Attempted++
			if op.err != nil {
				r.Failed++
				continue
			}
			if op.overlap {
				overlaps++
			}
			if i >= len(p.ops) {
				mismatch++
				continue
			}
			want := p.ops[i]
			if op.id != want.id || op.out != want.out {
				mismatch++
				if firstMismatch == "" {
					firstMismatch = fmt.Sprintf("%s: traced %v, untraced %v", op.id, op.out, want.out)
				}
			}
			tracedMs += op.ms
			plainMs += want.ms
		}
		if p.seedMs > 0 {
			tracedMs += tp.seedMs
			plainMs += p.seedMs
		}
	}

	if fail != "" {
		r.problem("%d ops failed, first: %s", r.Failed, fail)
	}
	g.report(r)
	if mismatch > 0 {
		r.problem("traced pipeline differs from the public API on %d ops, first: %s", mismatch, firstMismatch)
	}
	if overlaps > 0 {
		r.problem("layer spans overlap (sum past the op's wall time) on %d traced ops", overlaps)
	}
	w.verify(r)

	r.Ops = len(lat)
	done.report(r)
	if tr != nil {
		r.Metrics["op_p50_ms"] = quantile(lat, 0.50)
		r.Metrics["op_p90_ms"] = quantile(lat, 0.90)
		r.Metrics["ops_per_s"] = ratio(float64(len(lat)), wall.Seconds())
		r.Metrics["seed_ms"] = median(seeds)
		tr.report(r)
		rt.report(r)
		r.Metrics["trace.overhead_pct"] = 100 * (ratio(tracedMs, plainMs) - 1)
		r.Notes = append(r.Notes, tr.notes()...)
		if err := writeSpanFile(o.spanPath(name), tr.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.Notes = append(r.Notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), o.spanPath(name)))
	}
	return r, nil
}

// --- pairwise ------------------------------------------------------------------

// pairwise is the paper's Table 2/3 regression workflow: every artifact
// version analyzed against its base, with test generation, one fresh
// Analyzer per artifact per pass (one CI job, one base, many patches).
type pairwise struct{ chains []chain }

func (w *pairwise) setup() error { return firstErr(w.facadePass(-1, nil)) }

func (w *pairwise) prepare(int) bool { return true }

func (w *pairwise) facadePass(_ int, probe func()) passResult {
	ctx := context.Background()
	var p passResult
	for _, c := range w.chains {
		a := dise.NewAnalyzer()
		for i := 1; i < len(c.versions); i++ {
			start := time.Now()
			res, err := a.Analyze(ctx, dise.Request{BaseSrc: c.versions[0], ModSrc: c.versions[i], Proc: c.proc})
			var tests []dise.TestCase
			if err == nil {
				tests, err = res.Tests()
			}
			op := opResult{id: c.opID(i), idx: len(p.ops), ms: msSince(start), err: err}
			if err == nil {
				op.in, op.out, op.st = inputDigest(c.versions[0], c.versions[i]), facadeOutput(res.Paths, tests), res.Stats
			}
			p.ops = append(p.ops, op)
		}
		if probe != nil {
			probe()
			runtime.KeepAlive(a) // the probe measures the Analyzer's caches
		}
	}
	return p
}

func (w *pairwise) mirrorPass(_ int, tr *tracer) passResult {
	var p passResult
	for _, c := range w.chains {
		m := newMirror(tr)
		for i := 1; i < len(c.versions); i++ {
			tr.beginOp()
			res, modProg, err := m.analyze(c.versions[0], c.versions[i], c.proc)
			var tests []testgen.TestCase
			if err == nil {
				tests, err = m.tests(res, modProg, c.proc)
			}
			wall, ok := tr.endOp(c.name + " Analyze+Tests")
			op := opResult{id: c.opID(i), idx: len(p.ops), ms: ms(wall), err: err, overlap: !ok}
			if err == nil {
				op.out = engineOutput(res.Summary.Paths, tests)
			}
			p.ops = append(p.ops, op)
		}
	}
	return p
}

func (w *pairwise) verify(*result) {}

// --- chain ---------------------------------------------------------------------

// chainW walks every artifact's version chain through one session per pass:
// NewSession's seeding run records the base version's execution tree into
// the memo trie, and each Advance replays it where the diff allows.
type chainW struct{ chains []chain }

func (w *chainW) setup() error { return firstErr(w.facadePass(-1, nil)) }

func (w *chainW) prepare(int) bool { return true }

func (w *chainW) facadePass(_ int, probe func()) passResult {
	ctx := context.Background()
	var p passResult
	idx := 0
	for _, c := range w.chains {
		a := dise.NewAnalyzer()
		start := time.Now()
		sess, err := a.NewSession(ctx, dise.SessionRequest{InitialSrc: c.versions[0], Proc: c.proc})
		p.seedMs += msSince(start)
		if err != nil {
			p.ops = append(p.ops, opResult{id: c.name + "/seed", idx: -1, err: err})
			idx += len(c.versions) - 1
			continue
		}
		for i := 1; i < len(c.versions); i++ {
			start := time.Now()
			res, err := sess.Advance(ctx, c.versions[i])
			op := opResult{id: c.opID(i), idx: idx, ms: msSince(start), err: err}
			if err == nil {
				op.in, op.out, op.st = inputDigest(c.versions[i-1], c.versions[i]), facadeOutput(res.Paths, nil), res.Stats
			}
			p.ops = append(p.ops, op)
			idx++
		}
		if probe != nil {
			probe()
			runtime.KeepAlive(sess) // the probe measures the session's trie
		}
	}
	return p
}

func (w *chainW) mirrorPass(_ int, tr *tracer) passResult {
	var p passResult
	idx := 0
	for _, c := range w.chains {
		m := newMirror(tr)
		tr.beginOp()
		s, err := m.newSession(c.versions[0], c.proc)
		wall, ok := tr.endOp(c.name + " seed")
		p.seedMs += ms(wall)
		if err != nil || !ok {
			p.ops = append(p.ops, opResult{id: c.name + "/seed", idx: -1, err: err, overlap: !ok})
			idx += len(c.versions) - 1
			continue
		}
		for i := 1; i < len(c.versions); i++ {
			tr.beginOp()
			res, err := s.advance(c.versions[i])
			wall, ok := tr.endOp(c.name + " advance")
			op := opResult{id: c.opID(i), idx: idx, ms: ms(wall), err: err, overlap: !ok}
			if err == nil {
				op.out = engineOutput(res.Summary.Paths, nil)
			}
			p.ops = append(p.ops, op)
			idx++
		}
	}
	return p
}

func (w *chainW) verify(*result) {}

// --- randcold ------------------------------------------------------------------

// randcold analyzes a stream of distinct random programs against a mutant
// each, through one shared Analyzer: every source is new, so every lookup
// misses the parse/CFG and prefix caches and evicts from them.
type randcold struct {
	src     *randSource
	chunk   int // ops per pass
	a       *dise.Analyzer
	warm    []pair
	cur     []pair // the pairs of the pass in progress
	samples []sample
}

// sample is an op kept for the cold re-run after the measurement.
type sample struct {
	id   string
	p    pair
	want output
}

// coldEvery picks which randcold ops are re-run cold after the measurement.
const coldEvery = 50

func newRandcold(pool *randomPool, seed int64, quick bool) *randcold {
	w := &randcold{src: pool.stream(seed), chunk: 500}
	warmOps := 300
	if quick {
		w.chunk, warmOps = 50, 20
	}
	warm := pool.warmup(seed)
	for i := 0; i < warmOps; i++ {
		p, ok := warm.pair()
		if !ok {
			break
		}
		w.warm = append(w.warm, p)
	}
	return w
}

func (w *randcold) setup() error {
	ctx := context.Background()
	w.a = dise.NewAnalyzer()
	for _, p := range w.warm {
		if _, err := w.a.Analyze(ctx, dise.Request{BaseSrc: p.base, ModSrc: p.mod, Proc: "p"}); err != nil {
			return fmt.Errorf("warm-up pair g%d: %w", p.gen, err)
		}
	}
	return nil
}

func (w *randcold) prepare(int) bool {
	w.cur = w.cur[:0]
	for i := 0; i < w.chunk; i++ {
		p, ok := w.src.pair()
		if !ok {
			break
		}
		w.cur = append(w.cur, p)
	}
	return len(w.cur) > 0
}

func (w *randcold) facadePass(k int, probe func()) passResult {
	ctx := context.Background()
	var p passResult
	for i, pr := range w.cur {
		idx := k*w.chunk + i
		start := time.Now()
		res, err := w.a.Analyze(ctx, dise.Request{BaseSrc: pr.base, ModSrc: pr.mod, Proc: "p"})
		op := opResult{id: randOpID(idx, pr), idx: idx, ms: msSince(start), err: err}
		if err == nil {
			op.in, op.out, op.st = inputDigest(pr.base, pr.mod), facadeOutput(res.Paths, nil), res.Stats
			if idx%coldEvery == 0 {
				w.samples = append(w.samples, sample{id: op.id, p: pr, want: op.out})
			}
		}
		p.ops = append(p.ops, op)
	}
	if probe != nil {
		probe()
	}
	return p
}

// mirrorPass traces the pass with a fresh mirror, so the mirror's caches
// are garbage by the next pass's heap reading; its first ops of each pass
// therefore fill rather than evict.
func (w *randcold) mirrorPass(k int, tr *tracer) passResult {
	m := newMirror(tr)
	var p passResult
	for i, pr := range w.cur {
		idx := k*w.chunk + i
		tr.beginOp()
		res, _, err := m.analyze(pr.base, pr.mod, "p")
		wall, ok := tr.endOp("random Analyze")
		op := opResult{id: randOpID(idx, pr), idx: idx, ms: ms(wall), err: err, overlap: !ok}
		if err == nil {
			op.out = engineOutput(res.Summary.Paths, nil)
		}
		p.ops = append(p.ops, op)
	}
	return p
}

// verify re-runs every coldEvery-th op cold through internal/dise and
// requires byte-identical path conditions.
func (w *randcold) verify(r *result) {
	for _, s := range w.samples {
		got, err := coldOutput(s.p.base, s.p.mod, "p")
		if err != nil {
			r.problem("cold re-run of %s: %v", s.id, err)
			continue
		}
		if got != s.want {
			r.problem("cold re-run of %s: %v, shared Analyzer gave %v", s.id, got, s.want)
		}
	}
}

// --- helpers -------------------------------------------------------------------

func firstErr(p passResult) error {
	for _, op := range p.ops {
		if op.err != nil {
			return fmt.Errorf("%s: %w", op.id, op.err)
		}
	}
	return nil
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// runtimeSnap is one reading of the runtime counters the runtime.* metrics
// come from.
type runtimeSnap struct {
	allocs, bytes, cycles uint64
	gcCPU, totalCPU       float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		cycles:   s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		totalCPU: s[4].Value.Float64(),
	}
}

// meter sums the runtime counters over the public-API passes, leaving out
// the forced collections of the heap probes, and keeps the largest live
// heap a probe saw.
type meter struct {
	from                  runtimeSnap
	ops                   int
	allocs, bytes, cycles uint64
	gcCPU, totalCPU       float64
	heapMax               float64
	probed                time.Duration // spent in probes
}

func (m *meter) start() { m.from = readRuntime() }

func (m *meter) stop(ops int) {
	to := readRuntime()
	m.ops += ops
	m.allocs += to.allocs - m.from.allocs
	m.bytes += to.bytes - m.from.bytes
	m.cycles += to.cycles - m.from.cycles
	m.gcCPU += to.gcCPU - m.from.gcCPU
	m.totalCPU += to.totalCPU - m.from.totalCPU
}

// probe reads the live heap after a forced, unmetered collection.
func (m *meter) probe() {
	start := time.Now()
	m.stop(0)
	runtime.GC()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	m.heapMax = max(m.heapMax, float64(s.HeapAlloc)/(1<<20))
	m.start()
	m.probed += time.Since(start)
}

func (m *meter) report(r *result) {
	ops := float64(m.ops)
	r.Metrics["runtime.allocs_per_op"] = ratio(float64(m.allocs), ops)
	r.Metrics["runtime.kb_per_op"] = ratio(float64(m.bytes)/1024, ops)
	r.Metrics["runtime.gc_cycles"] = ratio(float64(m.cycles)*1000, ops)
	r.Metrics["runtime.gc_cpu_pct"] = 100 * ratio(m.gcCPU, m.totalCPU)
	r.Metrics["heap_live_mb"] = m.heapMax
}
