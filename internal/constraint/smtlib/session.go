package smtlib

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dise/internal/constraint"
	"dise/internal/solver"
)

// session supervises the external solver conversation for one backend
// instance. It owns the degradation ladder the README documents: a
// per-check deadline kills a hung process; a crashed or killed process is
// respawned under a jittered exponential backoff; consecutive failures
// trip a circuit breaker that skips the external layer for a cooldown
// (then allows one half-open probe); and a bounded spawn budget ends the
// ladder at permanently-disabled. Every rung returns "no definitive
// answer" to the backend, which falls back to the in-process solver — the
// ladder moves Stats counters, never verdicts.
type session struct {
	o         constraint.SMTOptions // resolved: all defaults applied
	launch    func() (constraint.SMTProcess, error)
	now       func() time.Time
	stats     *constraint.Stats
	interrupt func() error // Options.Interrupt, polled while awaiting replies
	prelude   []string     // defs + declarations + domain asserts, replayed per spawn

	proc   constraint.SMTProcess
	ch     chan string   // replies pumped by the reader goroutine
	done   chan struct{} // closed by kill; unblocks a reader stuck in send
	synced [][]string    // assert lines per frame currently on the process

	spawns      int
	consecFails int
	backoff     time.Duration
	notBefore   time.Time // crashed: no respawn before this instant
	breakerOpen bool
	reopenAt    time.Time // breaker open until this instant (then half-open)
	disabled    bool      // permanent: no binary, or spawn budget exhausted

	jitter *rand.Rand
}

var (
	errCrashed      = errors.New("smtlib: solver process exited mid-conversation")
	errTimeout      = errors.New("smtlib: check deadline expired")
	errInterrupted  = errors.New("smtlib: interrupted while awaiting reply")
	errNoSolver     = errors.New("smtlib: no solver binary found on PATH")
	errSpawnsSpent  = errors.New("smtlib: restart budget exhausted")
	errBreakerOpen  = errors.New("smtlib: circuit breaker open")
	errInBackoff    = errors.New("smtlib: in restart backoff")
	errLyingModel   = errors.New("smtlib: solver model failed validation")
	errExtDisabled  = errors.New("smtlib: external solving disabled")
	errUnsupported  = errors.New("smtlib: stack outside the supported fragment")
	errNoDefinitive = errors.New("smtlib: solver answered unknown")
)

// newSession resolves the option defaults and the launch function. A
// session with no way to launch anything starts permanently disabled; the
// backend still counts every Check against it as an ExtUnknown, which is
// what the solver-less CI smoke asserts on.
func newSession(o constraint.SMTOptions, interrupt func() error, prelude []string, stats *constraint.Stats) *session {
	if o.CheckTimeout <= 0 {
		o.CheckTimeout = 5 * time.Second
	}
	if o.RestartBackoff <= 0 {
		o.RestartBackoff = 50 * time.Millisecond
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 8
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	s := &session{
		o:         o,
		now:       o.Clock,
		stats:     stats,
		prelude:   prelude,
		interrupt: interrupt,
		jitter:    rand.New(rand.NewSource(1)),
	}
	if s.now == nil {
		s.now = time.Now
	}
	switch {
	case o.Launch != nil:
		s.launch = o.Launch
	default:
		path, args := o.SolverPath, o.SolverArgs
		if path == "" {
			path, args = discoverSolver()
		} else if args == nil {
			args = argsFor(path)
		}
		if path == "" {
			s.disabled = true
			break
		}
		s.launch = func() (constraint.SMTProcess, error) { return launchExec(path, args) }
	}
	return s
}

// check runs one external check-sat conversation over the rendered frame
// stack. It returns ok=false (with the rung of the ladder that stopped it)
// whenever the external layer produced no definitive, validated verdict;
// the backend then consults its fallback. adopt vets a sat model before it
// is trusted and returns it as the result's model.
func (s *session) check(frames [][]string, vars []string, adopt func(map[string]int64) (*solver.Model, error)) (constraint.Result, error) {
	now := s.now()
	if s.disabled {
		return constraint.Result{}, errExtDisabled
	}
	if s.breakerOpen && now.Before(s.reopenAt) {
		return constraint.Result{}, errBreakerOpen
	}
	// Breaker open but cooled down: fall through as the half-open probe.
	if s.proc == nil {
		if now.Before(s.notBefore) {
			return constraint.Result{}, errInBackoff
		}
		if err := s.spawn(); err != nil {
			s.fail()
			return constraint.Result{}, err
		}
	}
	if err := s.sync(frames); err != nil {
		s.fail()
		return constraint.Result{}, err
	}
	s.stats.ExtSolves++
	verdict, err := s.checkSat()
	if err != nil {
		if errors.Is(err, errInterrupted) {
			// Caller-initiated: the process was healthy, so the kill does
			// not count against the solver's health record.
			s.kill()
			return constraint.Result{}, err
		}
		s.fail()
		return constraint.Result{}, err
	}
	switch verdict {
	case "unknown":
		// A healthy conversation without a verdict: not a failure.
		s.ok()
		return constraint.Result{}, errNoDefinitive
	case "unsat":
		s.ok()
		return constraint.Result{Sat: false}, nil
	default: // "sat"
		values, err := s.getValues(vars)
		if err != nil {
			s.fail()
			return constraint.Result{}, err
		}
		model, verr := adopt(values)
		if verr != nil {
			// A model contradicting the asserted stack means the solver
			// (or the transport) is lying; strict validation treats it
			// exactly like a garbage reply.
			s.fail()
			return constraint.Result{}, fmt.Errorf("%w: %v", errLyingModel, verr)
		}
		s.ok()
		return constraint.Result{Sat: true, Model: model}, nil
	}
}

// interrupt mirrors Options.Interrupt: polled while awaiting a reply so a
// cancelled request does not hold the engine for a full CheckTimeout.
func (s *session) pollInterrupt() bool {
	return s.interrupt != nil && s.interrupt() != nil
}

// spawn launches a fresh process against the spawn budget and replays the
// prelude (helper definitions, declarations, domain bounds). The frame
// stack is re-synced by the caller from scratch.
func (s *session) spawn() error {
	if s.spawns >= s.o.MaxRestarts {
		s.disabled = true
		return errSpawnsSpent
	}
	s.spawns++
	proc, err := s.launch()
	if err != nil {
		return fmt.Errorf("smtlib: spawn: %w", err)
	}
	s.stats.ExtRestarts++
	s.proc = proc
	s.ch = make(chan string, 16)
	s.done = make(chan struct{})
	go readerPump(proc, s.ch, s.done)
	s.synced = nil
	for _, line := range s.prelude {
		if err := proc.Write(line); err != nil {
			return fmt.Errorf("smtlib: prelude: %w", err)
		}
	}
	return nil
}

// readerPump moves reply lines from the process onto ch until the process
// dies (ReadLine error) or the supervisor kills the conversation (done
// closed — which also covers a pump blocked in send, so no goroutine ever
// leaks on a discarded process).
func readerPump(p constraint.SMTProcess, ch chan<- string, done <-chan struct{}) {
	for {
		line, err := p.ReadLine()
		if err != nil {
			close(ch)
			return
		}
		select {
		case ch <- line:
		case <-done:
			return
		}
	}
}

// sync aligns the process's assertion stack with the backend's rendered
// frames — the same pop-to-common-prefix-then-push discipline the engine's
// syncStack applies to the backend itself, so in steady state each Check
// ships only the delta. A frame whose lines grew in place (Assert onto the
// top frame between Checks) extends without a pop.
func (s *session) sync(frames [][]string) error {
	n := 0
	//diselint:ignore interruptloop bounded: advances one frame per iteration, capped by min(len(synced), len(frames))
	for n < len(s.synced) && n < len(frames) && sameLines(s.synced[n], frames[n]) {
		n++
	}
	if n < len(s.synced) {
		if n == len(s.synced)-1 && n < len(frames) && prefixLines(s.synced[n], frames[n]) {
			// Top synced frame extended in place: assert the tail.
			for _, line := range frames[n][len(s.synced[n]):] {
				if err := s.proc.Write(line); err != nil {
					return fmt.Errorf("smtlib: assert: %w", err)
				}
			}
			s.synced[n] = append([]string(nil), frames[n]...)
			n++
		} else {
			if err := s.proc.Write(fmt.Sprintf("(pop %d)", len(s.synced)-n)); err != nil {
				return fmt.Errorf("smtlib: pop: %w", err)
			}
			s.synced = s.synced[:n]
		}
	}
	for _, f := range frames[n:] {
		if err := s.proc.Write("(push 1)"); err != nil {
			return fmt.Errorf("smtlib: push: %w", err)
		}
		for _, line := range f {
			if err := s.proc.Write(line); err != nil {
				return fmt.Errorf("smtlib: assert: %w", err)
			}
		}
		s.synced = append(s.synced, append([]string(nil), f...))
	}
	return nil
}

func sameLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	return prefixLines(a, b)
}

func prefixLines(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSat sends (check-sat) and awaits the verdict under the per-check
// deadline, polling the interrupt hook so cancellation does not wait out
// the deadline. Replies are validated strictly: anything but
// sat/unsat/unknown (blank lines and comments aside) is garbage and kills
// the process — a desynchronized reply stream cannot be trusted again.
func (s *session) checkSat() (string, error) {
	if err := s.proc.Write("(check-sat)"); err != nil {
		return "", fmt.Errorf("smtlib: check-sat: %w", err)
	}
	deadline := time.NewTimer(s.o.CheckTimeout)
	defer deadline.Stop()
	poll := time.NewTicker(pollInterval)
	defer poll.Stop()
	for {
		select {
		case line, open := <-s.ch:
			if !open {
				return "", errCrashed
			}
			line = strings.TrimSpace(line)
			switch line {
			case "sat", "unsat", "unknown":
				return line, nil
			case "":
				continue
			}
			if strings.HasPrefix(line, ";") {
				continue
			}
			return "", fmt.Errorf("smtlib: unparseable check-sat reply %q", line)
		case <-deadline.C:
			s.stats.ExtTimeouts++
			return "", errTimeout
		case <-poll.C:
			if s.pollInterrupt() {
				return "", errInterrupted
			}
		}
	}
}

// pollInterval is how often a wait on the external solver re-checks the
// caller's interrupt hook.
const pollInterval = 5 * time.Millisecond

// getValues asks for the model of every declared variable and parses the
// ((name value) ...) reply, accumulating lines until the parentheses
// balance (solvers are free to wrap).
func (s *session) getValues(vars []string) (map[string]int64, error) {
	if err := s.proc.Write("(get-value (" + strings.Join(vars, " ") + "))"); err != nil {
		return nil, fmt.Errorf("smtlib: get-value: %w", err)
	}
	deadline := time.NewTimer(s.o.CheckTimeout)
	defer deadline.Stop()
	poll := time.NewTicker(pollInterval)
	defer poll.Stop()
	var buf strings.Builder
	depth, seen := 0, false
	for {
		select {
		case line, open := <-s.ch:
			if !open {
				return nil, errCrashed
			}
			buf.WriteString(line)
			buf.WriteString("\n")
			for _, r := range line {
				switch r {
				case '(':
					depth, seen = depth+1, true
				case ')':
					depth--
				}
			}
			if seen && depth <= 0 {
				return parseValues(buf.String(), vars)
			}
			if buf.Len() > maxReplyBytes {
				return nil, fmt.Errorf("smtlib: get-value reply exceeds %d bytes", maxReplyBytes)
			}
		case <-deadline.C:
			s.stats.ExtTimeouts++
			return nil, errTimeout
		case <-poll.C:
			if s.pollInterrupt() {
				return nil, errInterrupted
			}
		}
	}
}

// maxReplyBytes caps a model reply; beyond it the stream is garbage.
const maxReplyBytes = 1 << 20

// ok records a healthy conversation: failures stop being consecutive, the
// backoff resets, and an open breaker (this was the half-open probe)
// closes.
func (s *session) ok() {
	s.consecFails = 0
	s.backoff = 0
	s.breakerOpen = false
}

// fail records one failed conversation and advances the ladder: kill the
// process, schedule the respawn under jittered exponential backoff, and
// trip (or re-trip, after a failed half-open probe) the breaker once the
// failures reach the threshold.
func (s *session) fail() {
	s.kill()
	s.consecFails++
	if s.backoff == 0 {
		s.backoff = s.o.RestartBackoff
	} else if s.backoff < 100*s.o.RestartBackoff {
		s.backoff *= 2
	}
	delay := s.backoff + time.Duration(s.jitter.Int63n(int64(s.backoff)/2+1))
	s.notBefore = s.now().Add(delay)
	if s.consecFails >= s.o.BreakerThreshold {
		s.breakerOpen = true
		s.reopenAt = s.now().Add(s.o.BreakerCooldown)
		s.stats.ExtBreakerTrips++
	}
}

// kill discards the current process (idempotent).
func (s *session) kill() {
	if s.proc == nil {
		return
	}
	close(s.done)
	s.proc.Kill()
	s.proc = nil
	s.synced = nil
}
