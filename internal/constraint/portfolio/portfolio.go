// Package portfolio is a meta-backend that races member backends on every
// Check. Each member mirrors the full assertion stack; a Check fans out to
// all live members concurrently, adopts the first definitive (non-Unknown)
// verdict, cancels the losers through their interrupt hooks, and waits for
// every member to return before handing the verdict back — no goroutine
// outlives the Check that spawned it.
//
// Member failure is isolated: a panicking member is recovered, counted
// (Stats.MemberFailures), and permanently excluded; the remaining members
// keep deciding. Soundness is the intersection contract — every member
// must be individually sound over the same domains, so any definitive
// member verdict is a correct verdict for the portfolio, and the only
// observable effect of a member dying is which counters move.
//
// The default portfolio is interval + bitvec + smtlib: two in-process
// backends that always answer, plus the external-solver backend whose own
// fallback guarantees it answers too.
package portfolio

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dise/internal/constraint"
	"dise/internal/sym"

	// The default member set includes the external-solver backend.
	_ "dise/internal/constraint/smtlib"
)

// Name is the registry name of the backend.
const Name = "portfolio"

func init() {
	constraint.Register(Name, New)
}

// DefaultMembers is the member set used when Options.Portfolio is empty.
var DefaultMembers = []string{constraint.BackendInterval, constraint.BackendBitvec, "smtlib"}

// errLost is what a losing member's interrupt hook reports once another
// member has already produced the verdict.
var errLost = fmt.Errorf("portfolio: another member answered first")

type member struct {
	name    string
	backend constraint.Backend
	dead    atomic.Bool // excluded after a panic
}

type backend struct {
	members []*member
	stats   constraint.Stats
	cancel  atomic.Bool // set while a Check already has its verdict
	base    func() error
	depth   int // open frames; guards the base-frame Pop contract
}

// New builds the portfolio from Options.Portfolio (or DefaultMembers).
// Each member gets the same domains and budget but its own interrupt hook:
// the caller's, joined with the portfolio's lost-race cancellation flag.
func New(opts constraint.Options) (constraint.Backend, error) {
	names := opts.Portfolio
	if len(names) == 0 {
		names = DefaultMembers
	}
	b := &backend{base: opts.Interrupt}
	seen := map[string]bool{}
	for _, name := range names {
		if name == Name {
			return nil, fmt.Errorf("portfolio: cannot nest %q as a member", Name)
		}
		if seen[name] {
			return nil, fmt.Errorf("portfolio: duplicate member %q", name)
		}
		seen[name] = true
		mo := opts
		mo.Portfolio = nil
		mo.Interrupt = b.memberInterrupt
		mb, err := constraint.New(name, mo)
		if err != nil {
			return nil, fmt.Errorf("portfolio: member %q: %w", name, err)
		}
		b.members = append(b.members, &member{name: name, backend: mb})
	}
	if len(b.members) == 0 {
		return nil, fmt.Errorf("portfolio: no members")
	}
	return b, nil
}

// memberInterrupt is every member's interrupt hook: the caller's own
// cancellation, plus the race-lost flag that stops members still searching
// after a sibling produced the verdict.
func (b *backend) memberInterrupt() error {
	if b.cancel.Load() {
		return errLost
	}
	if b.base != nil {
		return b.base()
	}
	return nil
}

// each applies op to every live member, recovering and excluding a member
// whose op panics. It returns the number of members still alive.
func (b *backend) each(op func(constraint.Backend)) int {
	live := 0
	for _, m := range b.members {
		if m.dead.Load() {
			continue
		}
		if b.guard(m, op) {
			live++
		}
	}
	return live
}

// guard runs op on one member, converting a panic into the member's
// permanent exclusion. It reports whether the member survived.
func (b *backend) guard(m *member, op func(constraint.Backend)) (alive bool) {
	defer func() {
		if r := recover(); r != nil {
			m.dead.Store(true)
			b.stats.MemberFailures++
			alive = false
		}
	}()
	op(m.backend)
	return true
}

func (b *backend) Push() {
	b.stats.PushedFrames++
	b.depth++
	b.each(func(m constraint.Backend) { m.Push() })
}

func (b *backend) Pop() {
	if b.depth == 0 {
		// A caller imbalance is the caller's bug, not a member failure:
		// surface it instead of excluding every member.
		panic("portfolio: Pop of the base frame (push/pop imbalance)")
	}
	b.stats.PoppedFrames++
	b.depth--
	b.each(func(m constraint.Backend) { m.Pop() })
}

func (b *backend) Assert(c sym.Expr) {
	b.stats.Asserts++
	b.each(func(m constraint.Backend) { m.Assert(c) })
}

// Check races the live members. The first definitive verdict wins and
// flips the cancellation flag; every other member notices through its
// interrupt hook and returns early (as Unknown, which the portfolio
// discards). The method returns only after every racer has returned, so a
// Check never leaks a goroutine into the next one.
func (b *backend) Check() constraint.Result {
	b.stats.Checks++
	res := b.race()
	b.stats.Tally(res)
	return res
}

type verdict struct {
	m   *member
	res constraint.Result
	err any // non-nil: the member panicked with this value
}

func (b *backend) race() constraint.Result {
	b.cancel.Store(false)
	ch := make(chan verdict)
	racing := 0
	var wg sync.WaitGroup
	for _, m := range b.members {
		if m.dead.Load() {
			continue
		}
		racing++
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			v := verdict{m: m}
			func() {
				defer func() { v.err = recover() }()
				v.res = m.backend.Check()
			}()
			ch <- v
		}(m)
	}
	if racing == 0 {
		// Every member has panicked its way out of the portfolio; Unknown
		// is the only honest answer left.
		return constraint.Result{Unknown: true}
	}

	var won constraint.Result
	decided := false
	for i := 0; i < racing; i++ {
		v := <-ch
		if v.err != nil {
			v.m.dead.Store(true)
			b.stats.MemberFailures++
			continue
		}
		if !decided && !v.res.Unknown {
			won, decided = v.res, true
			// Tell the members still searching that the race is over.
			b.cancel.Store(true)
		}
	}
	wg.Wait()
	b.cancel.Store(false)
	if !decided {
		return constraint.Result{Unknown: true}
	}
	return won
}

// Stats reports the portfolio's own stack/verdict counters plus the
// members' solving and resilience counters folded in, so external-solver
// health (ExtRestarts, ExtBreakerTrips, ...) stays visible through the
// portfolio wrapper.
func (b *backend) Stats() constraint.Stats {
	st := b.stats
	st.Backend = Name
	for _, m := range b.members {
		fm := m.backend.Stats()
		st.CacheHits += fm.CacheHits
		st.CacheMisses += fm.CacheMisses
		st.BoxConflicts += fm.BoxConflicts
		st.FullSolves += fm.FullSolves
		st.SearchNodes += fm.SearchNodes
		st.Propagations += fm.Propagations
		st.BoxSnapshots += fm.BoxSnapshots
		st.ExtSolves += fm.ExtSolves
		st.ExtAnswers += fm.ExtAnswers
		st.ExtUnknowns += fm.ExtUnknowns
		st.ExtTimeouts += fm.ExtTimeouts
		st.ExtRestarts += fm.ExtRestarts
		st.ExtBreakerTrips += fm.ExtBreakerTrips
		st.FallbackSolves += fm.FallbackSolves
		st.MemberFailures += fm.MemberFailures
	}
	return st
}
