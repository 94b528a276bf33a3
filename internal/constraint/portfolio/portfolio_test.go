package portfolio

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dise/internal/constraint"
	"dise/internal/solver"
	"dise/internal/sym"
)

// slowpoke is a test member that answers correctly but slowly, polling its
// interrupt hook: the member the portfolio should always cancel.
type slowpoke struct {
	inner     constraint.Backend
	interrupt func() error
	delay     time.Duration
	cancelled *int // counts Checks abandoned via the interrupt hook
	mu        *sync.Mutex
}

func (s *slowpoke) Push()             { s.inner.Push() }
func (s *slowpoke) Pop()              { s.inner.Pop() }
func (s *slowpoke) Assert(c sym.Expr) { s.inner.Assert(c) }

func (s *slowpoke) Check() constraint.Result {
	deadline := time.Now().Add(s.delay)
	for time.Now().Before(deadline) {
		if s.interrupt != nil && s.interrupt() != nil {
			s.mu.Lock()
			*s.cancelled++
			s.mu.Unlock()
			return constraint.Result{Unknown: true}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return s.inner.Check()
}

func (s *slowpoke) Caps() constraint.Caps   { return constraint.Caps{Name: "slowpoke"} }
func (s *slowpoke) Stats() constraint.Stats { return s.inner.Stats() }
func (s *slowpoke) ResetStats()             { s.inner.ResetStats() }

// panicky is a test member that panics on the Nth Check.
type panicky struct {
	inner constraint.Backend
	n     int
	count int
}

func (p *panicky) Push()             { p.inner.Push() }
func (p *panicky) Pop()              { p.inner.Pop() }
func (p *panicky) Assert(c sym.Expr) { p.inner.Assert(c) }

func (p *panicky) Check() constraint.Result {
	p.count++
	if p.count == p.n {
		panic("panicky member blew up")
	}
	return p.inner.Check()
}

func (p *panicky) Caps() constraint.Caps   { return constraint.Caps{Name: "panicky"} }
func (p *panicky) Stats() constraint.Stats { return p.inner.Stats() }
func (p *panicky) ResetStats()             { p.inner.ResetStats() }

var registerOnce sync.Once

// testMembers registers the test member backends under fixed names; the
// shared counters are reset per test via the package-level vars.
var (
	cancelMu        sync.Mutex
	cancelledChecks int
)

func registerTestMembers() {
	registerOnce.Do(func() {
		constraint.Register("test-slowpoke", func(o constraint.Options) (constraint.Backend, error) {
			inner, err := constraint.New(constraint.BackendInterval, o)
			if err != nil {
				return nil, err
			}
			return &slowpoke{inner: inner, interrupt: o.Interrupt, delay: 10 * time.Second,
				cancelled: &cancelledChecks, mu: &cancelMu}, nil
		})
		constraint.Register("test-panicky", func(o constraint.Options) (constraint.Backend, error) {
			inner, err := constraint.New(constraint.BackendInterval, o)
			if err != nil {
				return nil, err
			}
			return &panicky{inner: inner, n: 2}, nil
		})
	})
}

func domains() map[string]solver.Interval {
	return map[string]solver.Interval{"X": {Lo: 0, Hi: 10}}
}

func build(t *testing.T, members ...string) constraint.Backend {
	t.Helper()
	registerTestMembers()
	b, err := New(constraint.Options{Domains: domains(), Portfolio: members})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func xGT(v int64) sym.Expr { return sym.Cmp(sym.OpGT, sym.V("X"), sym.Int(v)) }

func TestFirstDefinitiveWinsAndLoserIsCancelled(t *testing.T) {
	cancelMu.Lock()
	cancelledChecks = 0
	cancelMu.Unlock()
	b := build(t, constraint.BackendInterval, "test-slowpoke")
	b.Push()
	b.Assert(xGT(5))
	start := time.Now()
	res := b.Check()
	if !res.Sat || res.Unknown {
		t.Fatalf("want sat, got %+v", res)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("losing member was awaited to completion (took %v)", since)
	}
	cancelMu.Lock()
	n := cancelledChecks
	cancelMu.Unlock()
	if n != 1 {
		t.Fatalf("loser not cancelled through its interrupt hook: %d", n)
	}
	if res.Model.Map()["X"] <= 5 || res.Model.Map()["X"] > 10 {
		t.Fatalf("bad model %v", res.Model)
	}
}

func TestPanickingMemberIsExcludedNotFatal(t *testing.T) {
	b := build(t, "test-panicky", constraint.BackendInterval)
	b.Push()
	b.Assert(xGT(5))
	for i := 0; i < 4; i++ {
		if res := b.Check(); !res.Sat {
			t.Fatalf("check %d: want sat, got %+v", i, res)
		}
	}
	st := b.Stats()
	if st.MemberFailures != 1 {
		t.Fatalf("panic not counted: %+v", st)
	}
	if st.Checks != 4 || st.Unknown != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestVerdictsMatchIntervalAcrossDefaultMembers(t *testing.T) {
	// The full default portfolio (interval + bitvec + smtlib, no solver
	// binary configured) must agree with a bare interval backend.
	p, err := New(constraint.Options{Domains: domains(),
		SMT: constraint.SMTOptions{SolverPath: "/nonexistent/never-a-solver"}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := constraint.New(constraint.BackendInterval, constraint.Options{Domains: domains()})
	if err != nil {
		t.Fatal(err)
	}
	stacks := [][]sym.Expr{
		{xGT(5)},
		{xGT(50)},
		{sym.Cmp(sym.OpEQ, sym.Mod(sym.V("X"), sym.Int(3)), sym.Int(1)), xGT(6)},
		{sym.Cmp(sym.OpLT, sym.Add(sym.V("X"), sym.Int(5)), sym.Int(4))},
	}
	for i, stack := range stacks {
		p.Push()
		ref.Push()
		for _, c := range stack {
			p.Assert(c)
			ref.Assert(c)
		}
		got, want := p.Check(), ref.Check()
		if got.Sat != want.Sat || got.Unknown != want.Unknown {
			t.Errorf("stack %d: portfolio %+v vs interval %+v", i, got, want)
		}
		p.Pop()
		ref.Pop()
	}
}

func TestRejectsBadMemberSets(t *testing.T) {
	registerTestMembers()
	for _, members := range [][]string{
		{Name},                       // nesting
		{"interval", "interval"},     // duplicate
		{"no-such-backend-anywhere"}, // unknown
	} {
		if _, err := New(constraint.Options{Domains: domains(), Portfolio: members}); err == nil {
			t.Errorf("member set %v accepted", members)
		}
	}
}

func TestPopOfBaseFramePanics(t *testing.T) {
	b := build(t, constraint.BackendInterval)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(r.(string), "imbalance") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	b.Pop()
}

// TestCancellationStress hammers the race machinery — meant to run under
// -race in CI: concurrent member Checks, cancellation flag flips, and
// panic recovery must all be clean.
func TestCancellationStress(t *testing.T) {
	registerTestMembers()
	b, err := New(constraint.Options{Domains: domains(),
		Portfolio: []string{constraint.BackendInterval, constraint.BackendBitvec, "test-slowpoke"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		b.Push()
		if i%2 == 0 {
			b.Assert(xGT(5))
		} else {
			b.Assert(xGT(50))
		}
		res := b.Check()
		if i%2 == 0 && !res.Sat {
			t.Fatalf("iter %d: want sat, got %+v", i, res)
		}
		if i%2 == 1 && (res.Sat || res.Unknown) {
			t.Fatalf("iter %d: want unsat, got %+v", i, res)
		}
		b.Pop()
	}
	if st := b.Stats(); st.Checks != 200 || st.MemberFailures != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
