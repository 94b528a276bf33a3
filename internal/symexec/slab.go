package symexec

import (
	"dise/internal/cfg"
	"dise/internal/slab"
	"dise/internal/sym"
)

// Slab chunk lengths. A chunk stays reachable while any cell carved from it
// is, so the lengths trade allocations against memory a few live cells can
// pin. A trace or path-condition cell is shared by every descendant state
// and path, and cells carved together belong to neighbouring states of the
// depth-first walk, which mostly live and die together.
const (
	traceSlabLen = 256 // 16-byte cells: 4 KB chunks
	pcSlabLen    = 128 // 32-byte cells: 4 KB chunks
)

// slabs hand out the engine's list cells from chunks and recycle its
// states. They are per engine, like everything else an exploration writes.
// Cells are never recycled: a cell lives as long as anything points into
// its chunk. States are: the scheduler's walks release a state once its
// expansion (or collection) is done, and fork reuses it, so a walk holds
// about two states per level of depth instead of one per explored state.
type slabs struct {
	traces []Trace
	pcs    []PathCond
	free   []*State
}

// appendTrace is Trace.Append with the cell carved from the engine's slab.
func (e *Engine) appendTrace(t *Trace, id int) *Trace {
	c := slab.New(&e.slabs.traces, traceSlabLen)
	*c = Trace{parent: t, id: int32(id), n: int32(t.Len() + 1)}
	return c
}

// VisitedTrace returns the trace of a path that ends at s after executing
// s's own node: s's trace plus that node when it is a statement. A pruner
// that collects a state without expanding it reports this trace (DiSE's
// collect); the cell comes from the engine's slab.
func (e *Engine) VisitedTrace(s *State) *Trace {
	switch s.Node.Kind {
	case cfg.KindCond, cfg.KindWrite, cfg.KindNop:
		return e.appendTrace(s.Trace, s.Node.ID)
	}
	return s.Trace
}

// appendPC is PathCond.Append with the cell carved from the engine's slab.
func (e *Engine) appendPC(p *PathCond, c sym.Expr) *PathCond {
	cell := slab.New(&e.slabs.pcs, pcSlabLen)
	*cell = PathCond{parent: p, c: c, n: p.Len() + 1}
	return cell
}

// fork returns a successor of s at node with the given trace. Everything
// else is shared with the parent: Env and PC are persistent (the caller
// extends them only for writes and branch constraints), and the witness
// model is immutable.
func (e *Engine) fork(s *State, node *cfg.Node, trace *Trace) *State {
	var succ *State
	if n := len(e.slabs.free); n > 0 {
		succ = e.slabs.free[n-1]
		e.slabs.free = e.slabs.free[:n-1]
	} else {
		succ = new(State)
	}
	*succ = State{
		Node:  node,
		Env:   s.Env,
		PC:    s.PC,
		Depth: s.Depth + 1,
		Trace: trace,
		Cover: s.Cover,
		Err:   s.Err,
		model: s.model,
	}
	return succ
}

// release hands a dead state back for fork to reuse. Only the scheduler's
// walks call it, on states nothing else can reach any more: expanded or
// collected states, and successors the pruner dropped or consumed.
func (e *Engine) release(s *State) {
	*s = State{}
	e.slabs.free = append(e.slabs.free, s)
}
