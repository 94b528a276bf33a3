package symexec

// This file defines the Frontier/Strategy abstraction of the exploration
// scheduler: a frontier is the worklist of pending symbolic states, and a
// strategy decides in which order the scheduler drains it. State expansion
// (Engine.Step) is fully decoupled from that order — any frontier yields a
// correct exploration, because states are self-contained (node, environment,
// path condition) and the solver's assertion stack re-syncs to whatever
// state is expanded next (Engine.syncStack).

import (
	"container/heap"
	"fmt"
)

// Strategy names accepted by Config.Strategy (and surfaced as the -strategy
// flag of cmd/dise and cmd/dised).
const (
	// StrategyDFS drains the frontier last-in-first-out, reproducing the
	// classic depth-first exploration of the execution tree. It is the
	// default, and for directed (DiSE) analysis it is the order whose
	// pruning decisions the paper's Theorem 3.10 is stated over.
	StrategyDFS = "dfs"
	// StrategyBFS drains the frontier first-in-first-out, exploring the
	// execution tree level by level.
	StrategyBFS = "bfs"
	// StrategyDirected drains the frontier lowest-score-first, where the
	// score is a CFG hop distance to the nearest target node: for DiSE, the
	// distance to the nearest unexplored affected node; for full symbolic
	// execution, the distance to the procedure's end node.
	StrategyDirected = "directed"
)

// Item is one frontier entry: a pending state plus the scheduler bookkeeping
// a strategy may order by.
type Item struct {
	// State is the symbolic state awaiting expansion.
	State *State
	// Seq is a monotone insertion sequence number; strategies use it for
	// deterministic tie-breaking.
	Seq uint64
	// Score is the priority of the state under a scoring strategy (lower is
	// more urgent), frozen at push time.
	Score int

	task *task
}

// Frontier is a worklist of pending states. Push receives siblings in
// execution order (the true branch first); a depth-first frontier must pop
// them in that same order. Frontiers are not safe for concurrent use — the
// scheduler serializes access.
type Frontier interface {
	Push(items ...*Item)
	Pop() (*Item, bool)
	Len() int
}

// Strategy builds an empty frontier for one exploration. The score function
// maps a state to its priority (lower first) and is only consulted by
// scoring strategies; it may be nil for order-only strategies.
type Strategy func(score func(*State) int) Frontier

// Strategies lists the strategy names accepted by Config.Strategy, the
// default ("dfs") first.
func Strategies() []string { return []string{StrategyDFS, StrategyBFS, StrategyDirected} }

// strategyFor resolves a strategy name; the empty name selects DFS.
func strategyFor(name string) (Strategy, error) {
	switch name {
	case "", StrategyDFS:
		return func(func(*State) int) Frontier { return &lifoFrontier{} }, nil
	case StrategyBFS:
		return func(func(*State) int) Frontier { return &fifoFrontier{} }, nil
	case StrategyDirected:
		return newScoredFrontier, nil
	}
	return nil, fmt.Errorf("symexec: unknown search strategy %q (have %v)", name, Strategies())
}

// lifoFrontier is the depth-first worklist: a stack. Sibling batches are
// pushed in reverse so the first sibling pops first, matching the preorder
// of the recursive exploration it replaces.
type lifoFrontier struct {
	stack []*Item
}

func (f *lifoFrontier) Push(items ...*Item) {
	for i := len(items) - 1; i >= 0; i-- {
		f.stack = append(f.stack, items[i])
	}
}

func (f *lifoFrontier) Pop() (*Item, bool) {
	if len(f.stack) == 0 {
		return nil, false
	}
	it := f.stack[len(f.stack)-1]
	f.stack[len(f.stack)-1] = nil
	f.stack = f.stack[:len(f.stack)-1]
	return it, true
}

func (f *lifoFrontier) Len() int { return len(f.stack) }

// fifoFrontier is the breadth-first worklist: a queue.
type fifoFrontier struct {
	queue []*Item
	head  int
}

func (f *fifoFrontier) Push(items ...*Item) { f.queue = append(f.queue, items...) }

func (f *fifoFrontier) Pop() (*Item, bool) {
	if f.head == len(f.queue) {
		return nil, false
	}
	it := f.queue[f.head]
	f.queue[f.head] = nil
	f.head++
	if f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
	}
	return it, true
}

func (f *fifoFrontier) Len() int { return len(f.queue) - f.head }

// scoredFrontier is a binary min-heap over (Score, Seq): lowest score first,
// first-pushed first among equals, so the order is deterministic. Scores are
// frozen at push time — with a moving target set (DiSE's unexplored affected
// nodes) the order is a heuristic, not an invariant, which is all a search
// strategy needs to be.
type scoredFrontier struct {
	score func(*State) int
	heap  scoredHeap
}

func newScoredFrontier(score func(*State) int) Frontier {
	return &scoredFrontier{score: score}
}

func (f *scoredFrontier) Push(items ...*Item) {
	for _, it := range items {
		if f.score != nil {
			it.Score = f.score(it.State)
		}
		heap.Push(&f.heap, it)
	}
}

func (f *scoredFrontier) Pop() (*Item, bool) {
	if len(f.heap) == 0 {
		return nil, false
	}
	return heap.Pop(&f.heap).(*Item), true
}

func (f *scoredFrontier) Len() int { return len(f.heap) }

type scoredHeap []*Item

func (h scoredHeap) Len() int { return len(h) }
func (h scoredHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Seq < h[j].Seq
}
func (h scoredHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *scoredHeap) Push(x any)   { *h = append(*h, x.(*Item)) }
func (h *scoredHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
