package smtlib

import (
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dise/internal/constraint"
	"dise/internal/solver"
	"dise/internal/sym"
)

// scriptProc is a deterministic in-process SMTProcess for unit tests: each
// check-sat consumes the next scripted action, get-value replies with the
// scripted model line. It exercises the supervisor's full reply path
// without any solver binary.
type scriptProc struct {
	mu      sync.Mutex
	queue   []string
	notify  chan struct{}
	done    chan struct{}
	once    sync.Once
	checks  *[]string // shared script: next check-sat actions, consumed front-first
	value   string    // get-value reply line
	killed  bool
	pops    int
	pushes  int
	asserts int
}

// Script actions besides literal reply lines.
const (
	actCrash = "CRASH" // die without replying
	actHang  = "HANG"  // never reply
)

func newScriptProc(checks *[]string, value string) *scriptProc {
	return &scriptProc{
		queue:  nil,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
		checks: checks,
		value:  value,
	}
}

func (p *scriptProc) Write(line string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed {
		return errors.New("write to dead process")
	}
	switch {
	case strings.HasPrefix(line, "(check-sat"):
		if len(*p.checks) == 0 {
			p.push("unknown")
			return nil
		}
		act := (*p.checks)[0]
		*p.checks = (*p.checks)[1:]
		switch act {
		case actCrash:
			p.dieLocked()
		case actHang:
			// no reply: the deadline handles it
		default:
			p.push(act)
		}
	case strings.HasPrefix(line, "(get-value"):
		p.push(p.value)
	case strings.HasPrefix(line, "(push"):
		p.pushes++
	case strings.HasPrefix(line, "(pop"):
		p.pops++
	case strings.HasPrefix(line, "(assert"):
		p.asserts++
	}
	return nil
}

func (p *scriptProc) push(line string) {
	p.queue = append(p.queue, line)
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

func (p *scriptProc) dieLocked() {
	if !p.killed {
		p.killed = true
		p.once.Do(func() { close(p.done) })
	}
}

func (p *scriptProc) ReadLine() (string, error) {
	for {
		p.mu.Lock()
		if len(p.queue) > 0 {
			line := p.queue[0]
			p.queue = p.queue[1:]
			p.mu.Unlock()
			return line, nil
		}
		dead := p.killed
		p.mu.Unlock()
		if dead {
			return "", io.EOF
		}
		select {
		case <-p.notify:
		case <-p.done:
			return "", io.EOF
		}
	}
}

func (p *scriptProc) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dieLocked()
}

// fakeClock is a manually advanced clock for breaker/backoff tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testOptions builds Options with one int variable X in [0, 10], a
// scripted launcher, and timings fast enough for tests.
func testOptions(t *testing.T, checks *[]string, value string, clock *fakeClock) (constraint.Options, *[]*scriptProc) {
	t.Helper()
	var procs []*scriptProc
	o := constraint.Options{
		Domains: map[string]solver.Interval{"X": {Lo: 0, Hi: 10}},
		SMT: constraint.SMTOptions{
			CheckTimeout:   50 * time.Millisecond,
			RestartBackoff: time.Millisecond,
			Launch: func() (constraint.SMTProcess, error) {
				p := newScriptProc(checks, value)
				procs = append(procs, p)
				return p, nil
			},
		},
	}
	if clock != nil {
		o.SMT.Clock = clock.now
	}
	return o, &procs
}

func mustBackend(t *testing.T, o constraint.Options) constraint.Backend {
	t.Helper()
	b, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func xGT(v int64) sym.Expr { return sym.Cmp(sym.OpGT, sym.V("X"), sym.Int(v)) }

func TestExternalSatModelAdopted(t *testing.T) {
	checks := []string{"sat"}
	o, _ := testOptions(t, &checks, "((X 6))", nil)
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(5))
	res := b.Check()
	if !res.Sat || res.Unknown {
		t.Fatalf("want sat, got %+v", res)
	}
	if res.Model.Map()["X"] != 6 {
		t.Fatalf("external model not adopted: %v", res.Model)
	}
	st := b.Stats()
	if st.ExtAnswers != 1 || st.ExtSolves != 1 || st.FallbackSolves != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if res.Model.Index() == nil {
		t.Fatalf("external model %v not laid out over the input index", res.Model)
	}
	b.Pop()
}

func TestExternalUnsatAdopted(t *testing.T) {
	checks := []string{"unsat"}
	o, _ := testOptions(t, &checks, "((X 0))", nil)
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(50)) // outside [0,10]: genuinely unsat
	res := b.Check()
	if res.Sat || res.Unknown {
		t.Fatalf("want unsat, got %+v", res)
	}
	if st := b.Stats(); st.ExtAnswers != 1 || st.FallbackSolves != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLyingModelRejectedAndFallbackDecides(t *testing.T) {
	// External claims sat with X=2, which violates X > 5: validation must
	// refuse it, and the fallback still produces the correct sat verdict
	// with a model that does satisfy the stack.
	checks := []string{"sat"}
	o, procs := testOptions(t, &checks, "((X 2))", nil)
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(5))
	res := b.Check()
	if !res.Sat {
		t.Fatalf("want sat from fallback, got %+v", res)
	}
	if res.Model.Map()["X"] <= 5 {
		t.Fatalf("fallback model invalid: %v", res.Model)
	}
	st := b.Stats()
	if st.ExtUnknowns != 1 || st.FallbackSolves != 1 || st.ExtAnswers != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if !(*procs)[0].killed {
		t.Fatal("a lying solver process must be killed")
	}
}

func TestOutOfDomainModelRejected(t *testing.T) {
	checks := []string{"sat"}
	o, _ := testOptions(t, &checks, "((X 99))", nil)
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(5))
	if res := b.Check(); !res.Sat || res.Model.Map()["X"] > 10 {
		t.Fatalf("want in-domain fallback model, got %+v", res)
	}
	if st := b.Stats(); st.ExtAnswers != 0 {
		t.Fatalf("out-of-domain model adopted: %+v", st)
	}
}

func TestGarbageReplyDegradesToFallback(t *testing.T) {
	checks := []string{"Segmentation fault (core dumped)"}
	o, procs := testOptions(t, &checks, "", nil)
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(5))
	if res := b.Check(); !res.Sat {
		t.Fatalf("want sat from fallback, got %+v", res)
	}
	st := b.Stats()
	if st.ExtUnknowns != 1 || st.FallbackSolves != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if !(*procs)[0].killed {
		t.Fatal("garbage must kill the process")
	}
}

func TestUnknownReplyIsHealthyDegradation(t *testing.T) {
	checks := []string{"unknown", "unknown"}
	o, procs := testOptions(t, &checks, "", nil)
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(5))
	b.Check()
	b.Check()
	st := b.Stats()
	if st.ExtSolves != 2 || st.ExtUnknowns != 2 || st.FallbackSolves != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if len(*procs) != 1 {
		t.Fatalf("unknown replies must not restart the process; spawned %d", len(*procs))
	}
	if st.ExtRestarts != 1 || st.ExtBreakerTrips != 0 {
		t.Fatalf("unknown replies are not failures: %+v", st)
	}
}

func TestHangHitsDeadlineAndKills(t *testing.T) {
	checks := []string{actHang}
	o, procs := testOptions(t, &checks, "", nil)
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(5))
	if res := b.Check(); !res.Sat {
		t.Fatalf("want sat from fallback, got %+v", res)
	}
	st := b.Stats()
	if st.ExtTimeouts != 1 || st.ExtUnknowns != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if !(*procs)[0].killed {
		t.Fatal("deadline expiry must kill the process")
	}
}

func TestCrashRestartsUnderBackoff(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	checks := []string{actCrash, "unsat"}
	o, procs := testOptions(t, &checks, "", clock)
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(50))

	b.Check() // crash: fallback answers, respawn scheduled after backoff
	b.Check() // still inside the backoff window: external skipped entirely
	if len(*procs) != 1 {
		t.Fatalf("respawned inside the backoff window: %d procs", len(*procs))
	}
	clock.advance(time.Second)
	res := b.Check() // backoff passed: fresh process answers unsat
	if res.Sat || res.Unknown {
		t.Fatalf("want unsat, got %+v", res)
	}
	if len(*procs) != 2 {
		t.Fatalf("want one respawn, got %d procs", len(*procs))
	}
	st := b.Stats()
	if st.ExtRestarts != 2 || st.ExtAnswers != 1 || st.ExtUnknowns != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// The respawned process must have been re-synced from scratch.
	if (*procs)[1].pushes == 0 || (*procs)[1].asserts == 0 {
		t.Fatal("stack not replayed after restart")
	}
}

func TestBreakerTripsAndRecoversHalfOpen(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	checks := []string{actCrash, actCrash, "unsat"}
	o, procs := testOptions(t, &checks, "", clock)
	o.SMT.BreakerThreshold = 2
	o.SMT.BreakerCooldown = time.Minute
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(50))

	b.Check() // crash 1
	clock.advance(time.Second)
	b.Check() // crash 2: breaker trips
	st := b.Stats()
	if st.ExtBreakerTrips != 1 {
		t.Fatalf("breaker did not trip: %+v", st)
	}
	spawned := len(*procs)
	clock.advance(30 * time.Second) // inside the cooldown
	b.Check()
	if len(*procs) != spawned {
		t.Fatal("open breaker must skip the external layer entirely")
	}
	clock.advance(31 * time.Second) // past the cooldown: half-open probe
	res := b.Check()
	if res.Sat || res.Unknown {
		t.Fatalf("half-open probe should adopt unsat, got %+v", res)
	}
	if len(*procs) != spawned+1 {
		t.Fatalf("half-open probe did not respawn: %d vs %d", len(*procs), spawned)
	}
	// The successful probe closed the breaker: the next check goes external
	// with no cooldown wait.
	res = b.Check() // script exhausted: replies "unknown", still a healthy talk
	if st := b.Stats(); st.ExtBreakerTrips != 1 {
		t.Fatalf("breaker re-tripped after recovery: %+v", st)
	}
	_ = res
}

func TestDisabledAfterRestartBudget(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	checks := []string{actCrash, actCrash, actCrash, actCrash}
	o, procs := testOptions(t, &checks, "", clock)
	o.SMT.MaxRestarts = 2
	o.SMT.BreakerThreshold = 100 // keep the breaker out of this test's way
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(5))
	for i := 0; i < 5; i++ {
		if res := b.Check(); !res.Sat {
			t.Fatalf("check %d: want sat from fallback, got %+v", i, res)
		}
		clock.advance(time.Minute)
	}
	if len(*procs) != 2 {
		t.Fatalf("restart budget not enforced: %d spawns", len(*procs))
	}
	st := b.Stats()
	if st.ExtUnknowns != 5 || st.FallbackSolves != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNoBinaryDegradesEveryCheck(t *testing.T) {
	o := constraint.Options{
		Domains: map[string]solver.Interval{"X": {Lo: 0, Hi: 10}},
		SMT:     constraint.SMTOptions{SolverPath: "/nonexistent/never-a-solver"},
	}
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(5))
	if res := b.Check(); !res.Sat {
		t.Fatalf("want sat from fallback, got %+v", res)
	}
	b.Pop()
	b.Push()
	b.Assert(xGT(50))
	if res := b.Check(); res.Sat || res.Unknown {
		t.Fatalf("want unsat from fallback, got %+v", res)
	}
	st := b.Stats()
	if st.ExtUnknowns != 2 || st.FallbackSolves != 2 || st.Unknown != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUnsupportedFragmentSkipsExternal(t *testing.T) {
	checks := []string{"sat"}
	o, procs := testOptions(t, &checks, "((X 6))", nil)
	b := mustBackend(t, o)
	b.Push()
	// Symbolic divisor: outside the printer's fragment.
	b.Assert(sym.Cmp(sym.OpGT, sym.Div(sym.Int(10), sym.V("X")), sym.Int(1)))
	res := b.Check()
	if res.Unknown {
		t.Fatalf("fallback should decide, got %+v", res)
	}
	if len(*procs) != 0 {
		t.Fatal("unsupported stack must not reach the external solver")
	}
	st := b.Stats()
	if st.ExtSolves != 0 || st.ExtUnknowns != 1 {
		t.Fatalf("stats: %+v", st)
	}
	b.Pop()
	// With the unsupported frame popped, the external layer is eligible again.
	b.Push()
	b.Assert(xGT(5))
	if res := b.Check(); !res.Sat || res.Model.Map()["X"] != 6 {
		t.Fatalf("external not re-enabled after pop: %+v", res)
	}
}

func TestInterruptAbandonsExternalWait(t *testing.T) {
	checks := []string{actHang}
	var cancelled atomic.Bool
	o, procs := testOptions(t, &checks, "", nil)
	o.SMT.CheckTimeout = 10 * time.Second // the interrupt must win, not the deadline
	o.Interrupt = func() error {
		if cancelled.Load() {
			return errors.New("cancelled")
		}
		return nil
	}
	b := mustBackend(t, o)
	b.Push()
	b.Assert(xGT(5))
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancelled.Store(true)
	}()
	start := time.Now()
	res := b.Check()
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("interrupt did not abandon the wait (took %v)", since)
	}
	// The fallback also polls the interrupt, so the whole Check degrades
	// to Unknown — exactly what a cancelled request reports.
	if !res.Unknown && !res.Sat {
		t.Fatalf("unexpected verdict %+v", res)
	}
	if !(*procs)[0].killed {
		t.Fatal("abandoning a wait must kill the process (stream is mid-reply)")
	}
}

func TestPrinterGolden(t *testing.T) {
	declared := map[string]bool{"X": true, "Y": true}
	for _, tc := range []struct {
		expr sym.Expr
		want string
	}{
		{xGT(5), "(assert (> X 5))"},
		{sym.Cmp(sym.OpNE, sym.V("X"), sym.V("Y")), "(assert (not (= X Y)))"},
		{sym.AndE(xGT(0), sym.Cmp(sym.OpLE, sym.V("Y"), sym.Int(3))), "(assert (and (> X 0) (<= Y 3)))"},
		{sym.NotE(xGT(2)), "(assert (<= X 2))"}, // smart constructor negates the comparison
		{sym.Cmp(sym.OpEQ, sym.Div(sym.V("X"), sym.Int(2)), sym.Int(3)), "(assert (= (tdiv X 2) 3))"},
		{sym.Cmp(sym.OpEQ, sym.Mod(sym.V("X"), sym.Int(2)), sym.Int(1)), "(assert (= (tmod X 2) 1))"},
		{sym.Cmp(sym.OpEQ, sym.Add(sym.V("X"), sym.Int(-3)), sym.Int(0)), "(assert (= (+ X (- 3)) 0))"},
	} {
		got, err := renderAssert(tc.expr, declared)
		if err != nil {
			t.Fatalf("%v: %v", tc.expr, err)
		}
		if got != tc.want {
			t.Errorf("render(%v) = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

func TestPrinterRejectsUndeclaredAndSymbolicDivisor(t *testing.T) {
	declared := map[string]bool{"X": true}
	if _, err := renderAssert(sym.Cmp(sym.OpGT, sym.V("Z"), sym.Int(0)), declared); err == nil {
		t.Error("undeclared variable accepted")
	}
	if _, err := renderAssert(sym.Cmp(sym.OpGT, sym.Div(sym.V("X"), sym.V("X")), sym.Int(0)), declared); err == nil {
		t.Error("symbolic divisor accepted")
	}
	if _, err := renderAssert(sym.Cmp(sym.OpGT, sym.Div(sym.V("X"), sym.Int(0)), sym.Int(0)), declared); err == nil {
		t.Error("zero divisor accepted")
	}
}

func TestParseValues(t *testing.T) {
	m, err := parseValues("((X 3)\n (Y (- 2)))", []string{"X", "Y"})
	if err != nil {
		t.Fatalf("parseValues: %v", err)
	}
	if m["X"] != 3 || m["Y"] != -2 {
		t.Fatalf("model %v", m)
	}
	for _, bad := range []string{
		"((X 3))",              // Y missing
		"((X 3) (Y whoops))",   // non-numeric
		"(error \"no model\")", // solver error form
		"((X 3) (X 4) (Y 0))",  // duplicate
	} {
		if _, err := parseValues(bad, []string{"X", "Y"}); err == nil {
			t.Errorf("parseValues(%q) accepted", bad)
		}
	}
}
