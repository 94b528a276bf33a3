// Package chaos injects deterministic faults into the constraint layer so
// tests can prove the resilience contract: no solver failure mode may ever
// change an analysis verdict, only Stats counters.
//
// Faults are injected at two levels, deliberately different:
//
//   - Transport level (Transport): a fake SMT process handed to the smtlib
//     backend through SMTOptions.Launch. When not faulting it converses
//     correctly but answers "unknown" — so every verdict provably comes
//     from the backend's fallback — and on schedule it crashes, hangs,
//     replies garbage, or fails writes. This exercises the full
//     supervision ladder (deadline, kill, restart, backoff, breaker).
//
//   - Backend level (Wrap): a constraint.Backend wrapper that panics,
//     hangs, or degrades to Unknown on schedule. This exercises the
//     engine's panic containment and the portfolio's member isolation.
//     Backend-level faults never fabricate verdicts: a lying Backend
//     would (correctly) corrupt any consumer, which is not the contract
//     under test.
//
// Every schedule is a pure function of a check counter — no clocks, no
// randomness — so a chaos run is exactly reproducible.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dise/internal/constraint"
	"dise/internal/sym"
)

// Fault is one injected failure mode.
type Fault string

const (
	// Crash kills the conversation: at transport level the process exits
	// without replying; at backend level Check panics.
	Crash Fault = "crash"
	// Hang never answers: the transport goes silent; a wrapped backend
	// sleeps past any reasonable deadline before answering Unknown.
	Hang Fault = "hang"
	// Garbage replies nonsense to check-sat (transport level only).
	Garbage Fault = "garbage"
	// ErrWrite fails the write of stack-sync commands (transport only).
	ErrWrite Fault = "err-write"
	// Unknown degrades the Nth Check to an Unknown verdict (backend
	// level only) — the polite failure.
	Unknown Fault = "unknown"
)

// Plan is a deterministic fault schedule: inject Fault on every Nth
// check-sat (transport) or Check (backend), counting from 1. EveryN <= 0
// means never. The counter is shared across process respawns, so a
// crash-every-3rd plan keeps crashing restarted processes too.
type Plan struct {
	Fault  Fault
	EveryN int
	// HangFor bounds a Hang at backend level (a transport hang is ended
	// by the supervisor's deadline instead). Defaults to 50ms.
	HangFor time.Duration
}

func (p Plan) String() string { return fmt.Sprintf("%s/every-%d", p.Fault, p.EveryN) }

// due reports whether the n-th event (1-based) is scheduled to fault.
func (p Plan) due(n int) bool { return p.EveryN > 0 && n%p.EveryN == 0 }

// Transport returns an SMTOptions.Launch function producing fake solver
// processes governed by the plan. The shared counter lives in the returned
// closure: respawned processes continue the schedule, they do not restart
// it.
func Transport(plan Plan) func() (constraint.SMTProcess, error) {
	counter := &counter{}
	return func() (constraint.SMTProcess, error) {
		return &transport{plan: plan, n: counter, done: make(chan struct{}), notify: make(chan struct{}, 1)}, nil
	}
}

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) next() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// transport is the fake solver process. Protocol behavior when healthy:
// every check-sat answers "unknown" (keeping verdicts with the fallback),
// everything else is accepted silently.
type transport struct {
	plan   Plan
	n      *counter
	mu     sync.Mutex
	queue  []string
	killed bool
	once   sync.Once
	done   chan struct{}
	notify chan struct{}
}

var errInjectedWrite = errors.New("chaos: injected write failure")

func (t *transport) Write(line string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.killed {
		return errors.New("chaos: write to dead process")
	}
	switch {
	case len(line) >= 10 && line[:10] == "(check-sat":
		n := t.n.next()
		if t.plan.due(n) {
			switch t.plan.Fault {
			case Crash:
				t.dieLocked()
			case Hang:
				// Silence; the supervisor's deadline will fire.
			case Garbage:
				t.push("§§ not an smt reply §§")
			case ErrWrite:
				// Schedule hit but the fault targets writes; still answer.
				t.push("unknown")
			default:
				t.push("unknown")
			}
			return nil
		}
		t.push("unknown")
	case len(line) >= 5 && line[:5] == "(push":
		if t.plan.Fault == ErrWrite && t.plan.due(t.n.next()) {
			return errInjectedWrite
		}
	case len(line) >= 10 && line[:10] == "(get-value":
		// Healthy transports never claim sat, so a model request means the
		// conversation is already broken; answer garbage.
		t.push("chaos: no model")
	}
	return nil
}

func (t *transport) push(line string) {
	t.queue = append(t.queue, line)
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

func (t *transport) dieLocked() {
	if !t.killed {
		t.killed = true
		t.once.Do(func() { close(t.done) })
	}
}

func (t *transport) ReadLine() (string, error) {
	for {
		t.mu.Lock()
		if len(t.queue) > 0 {
			line := t.queue[0]
			t.queue = t.queue[1:]
			t.mu.Unlock()
			return line, nil
		}
		dead := t.killed
		t.mu.Unlock()
		if dead {
			return "", io.EOF
		}
		select {
		case <-t.notify:
		case <-t.done:
			return "", io.EOF
		}
	}
}

func (t *transport) Kill() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dieLocked()
}

// Wrap decorates a Backend with scheduled backend-level faults. Only
// Crash (panic), Hang (bounded sleep, then Unknown), and Unknown are
// meaningful here; other faults pass Checks through unchanged.
func Wrap(inner constraint.Backend, plan Plan) constraint.Backend {
	if plan.HangFor <= 0 {
		plan.HangFor = 50 * time.Millisecond
	}
	return &wrapped{inner: inner, plan: plan}
}

type wrapped struct {
	inner constraint.Backend
	plan  Plan
	n     int
}

func (w *wrapped) Push()             { w.inner.Push() }
func (w *wrapped) Pop()              { w.inner.Pop() }
func (w *wrapped) Assert(c sym.Expr) { w.inner.Assert(c) }

func (w *wrapped) Check() constraint.Result {
	w.n++
	if w.plan.due(w.n) {
		switch w.plan.Fault {
		case Crash:
			panic(fmt.Sprintf("chaos: injected panic on check %d", w.n))
		case Hang:
			time.Sleep(w.plan.HangFor)
			return constraint.Result{Unknown: true}
		case Unknown:
			return constraint.Result{Unknown: true}
		}
	}
	return w.inner.Check()
}

func (w *wrapped) Caps() constraint.Caps   { return w.inner.Caps() }
func (w *wrapped) Stats() constraint.Stats { return w.inner.Stats() }
func (w *wrapped) ResetStats()             { w.inner.ResetStats() }
