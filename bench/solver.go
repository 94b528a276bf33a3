package main

import (
	"sync"
	"time"

	"dise/internal/constraint"
	"dise/internal/sym"
)

// timedBackendName is the constraint backend the traced pipeline selects:
// the default interval backend wrapped so every Check is timed and sorted
// into the reuse tier that answered it.
const timedBackendName = "disebench-timed"

// checkClock accumulates constraint-layer work across every timed backend.
// The constraint registry is process-wide, so the clock is too; the tracer
// reads it as before/after snapshots around each layer call. Only the
// traced pipeline's goroutine touches it.
type checkClock struct {
	checks, fullSolves                                  int
	cacheHits, modelReuses, boxConflicts, frameMemoHits int
	searchNodes, asserts                                int
	total, full, reused                                 time.Duration
}

var (
	registerTimed sync.Once
	solverClock   checkClock
)

// timedSolver registers the timed backend on first use and returns the
// clock it reports to.
func timedSolver() *checkClock {
	registerTimed.Do(func() {
		constraint.Register(timedBackendName, func(o constraint.Options) (constraint.Backend, error) {
			inner, err := constraint.New(constraint.BackendInterval, o)
			if err != nil {
				return nil, err
			}
			return &timedBackend{Backend: inner, clock: &solverClock}, nil
		})
	})
	return &solverClock
}

// timedBackend delegates every call to the interval backend, so verdicts,
// models and the backend's own counters are unchanged.
type timedBackend struct {
	constraint.Backend
	clock *checkClock
}

func (b *timedBackend) Assert(c sym.Expr) {
	b.clock.asserts++
	b.Backend.Assert(c)
}

// Check times one check and classifies it by which of the backend's reuse
// counters moved: a full solve, or one of the reuse tiers. An ancestor
// conflict moves none of them and counts as reused.
func (b *timedBackend) Check() constraint.Result {
	before := b.Backend.Stats()
	start := time.Now()
	res := b.Backend.Check()
	d := time.Since(start)
	after := b.Backend.Stats()

	c := b.clock
	c.checks++
	c.total += d
	c.searchNodes += after.SearchNodes - before.SearchNodes
	if after.FullSolves > before.FullSolves {
		c.fullSolves++
		c.full += d
		return res
	}
	c.reused += d
	switch {
	case after.CacheHits > before.CacheHits:
		c.cacheHits++
	case after.ModelReuses > before.ModelReuses:
		c.modelReuses++
	case after.BoxConflicts > before.BoxConflicts:
		c.boxConflicts++
	case after.FrameMemoHits > before.FrameMemoHits:
		c.frameMemoHits++
	}
	return res
}

// sub returns the work done between two snapshots.
func (c checkClock) sub(o checkClock) checkClock {
	return checkClock{
		checks:        c.checks - o.checks,
		fullSolves:    c.fullSolves - o.fullSolves,
		cacheHits:     c.cacheHits - o.cacheHits,
		modelReuses:   c.modelReuses - o.modelReuses,
		boxConflicts:  c.boxConflicts - o.boxConflicts,
		frameMemoHits: c.frameMemoHits - o.frameMemoHits,
		searchNodes:   c.searchNodes - o.searchNodes,
		asserts:       c.asserts - o.asserts,
		total:         c.total - o.total,
		full:          c.full - o.full,
		reused:        c.reused - o.reused,
	}
}

// add accumulates o into c.
func (c *checkClock) add(o checkClock) {
	c.checks += o.checks
	c.fullSolves += o.fullSolves
	c.cacheHits += o.cacheHits
	c.modelReuses += o.modelReuses
	c.boxConflicts += o.boxConflicts
	c.frameMemoHits += o.frameMemoHits
	c.searchNodes += o.searchNodes
	c.asserts += o.asserts
	c.total += o.total
	c.full += o.full
	c.reused += o.reused
}
