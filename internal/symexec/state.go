// Package symexec implements symbolic execution of mini-language procedures
// over their control flow graphs.
//
// It provides the stepping primitives (a State carries the current CFG node,
// a symbolic environment mapping program variables to symbolic expressions,
// and a path condition; Step forks a state at conditional branches,
// consulting the constraint solver to prune infeasible branches exactly as
// described in §2.1 of the paper), an exploration scheduler that walks the
// states depth-first on one engine (scheduler.go), and on top of those
// the full ("traditional") symbolic execution used as the control in the
// paper's evaluation (§4.2.2). The directed search of DiSE plugs into the
// same scheduler as a Pruner (see internal/dise).
//
// States are persistent: a successor shares everything with its parent and
// pays only for what its step changed. The path condition and the statement
// trace are shared-tail lists extended by one cell per branch or statement;
// the environment is a shared sorted base shadowed by a small sorted write
// log, so a write copies at most envLogMax bindings and the whole
// environment is rebuilt only when the log folds. An emitted Path keeps
// both lists as they are, and builds slices from them only when asked
// (Path.PC, Path.Trace); syncing the solver stack and rendering a path
// condition read it into a reusable buffer. List cells are carved from
// per-engine slabs, the scheduler's walks hand states back for reuse once
// they are expanded (slab.go), and they give each expansion buffers for its
// successor lists, so the engine's inner loop allocates per change, not
// per fork or per path length.
package symexec

import (
	"sort"
	"strconv"
	"strings"

	"dise/internal/cfg"
	"dise/internal/memo"
	"dise/internal/solver"
	"dise/internal/sym"
)

// envLogMax is the capacity of an Env's write log. A write copies the log
// (at most this many bindings) instead of the environment; a write of a name
// the full log does not hold folds the log into a new base first. Small
// enough that the copy stays a few cache lines, large enough that a fold —
// one copy of every binding — is amortized over several writes.
const envLogMax = 8

// Env is a persistent symbolic environment: a name-sorted base of variable
// bindings shared between states, shadowed by a name-sorted write log of at
// most envLogMax bindings. The zero value is the empty environment. Both
// slices are immutable once published, so forked states share one Env value
// (two slice headers) and a write allocates only a new log — a copy of at
// most envLogMax entries — except when a new name meets a full log, which
// folds base and log into a fresh base.
type Env struct {
	base []envEntry // sorted by name
	log  []envEntry // sorted by name; entries shadow base entries of the same name
}

type envEntry struct {
	name string
	val  sym.Expr
}

// searchEntries returns the index of name in the sorted entries, or the
// insertion point with found=false.
func searchEntries(entries []envEntry, name string) (int, bool) {
	lo, hi := 0, len(entries)
	//diselint:ignore interruptloop bounded: binary search halves the window each iteration
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(entries) && entries[lo].name == name
}

// Get returns the symbolic expression bound to name.
func (e Env) Get(name string) (sym.Expr, bool) {
	if i, ok := searchEntries(e.log, name); ok {
		return e.log[i].val, true
	}
	if i, ok := searchEntries(e.base, name); ok {
		return e.base[i].val, true
	}
	return nil, false
}

// Set returns a new environment with name bound to val. The receiver is
// unchanged and shares its base with the result; a no-op write (the same
// interned expression) returns the receiver itself.
func (e Env) Set(name string, val sym.Expr) Env {
	i, inLog := searchEntries(e.log, name)
	if inLog {
		if e.log[i].val == val {
			return e
		}
		log := make([]envEntry, len(e.log))
		copy(log, e.log)
		log[i].val = val
		return Env{base: e.base, log: log}
	}
	if j, ok := searchEntries(e.base, name); ok && e.base[j].val == val {
		return e
	}
	if len(e.log) == envLogMax {
		return Env{base: e.flat()}.Set(name, val)
	}
	log := make([]envEntry, len(e.log)+1)
	copy(log, e.log[:i])
	log[i] = envEntry{name: name, val: val}
	copy(log[i+1:], e.log[i:])
	return Env{base: e.base, log: log}
}

// Each calls fn for every binding in name order.
func (e Env) Each(fn func(name string, val sym.Expr)) {
	b, l := e.base, e.log
	//diselint:ignore interruptloop bounded: consumes an entry of base or log per iteration
	for len(b) > 0 || len(l) > 0 {
		if len(l) == 0 || (len(b) > 0 && b[0].name < l[0].name) {
			fn(b[0].name, b[0].val)
			b = b[1:]
			continue
		}
		if len(b) > 0 && b[0].name == l[0].name {
			b = b[1:] // shadowed by the log
		}
		fn(l[0].name, l[0].val)
		l = l[1:]
	}
}

// flat returns the bindings as one name-sorted slice: the base itself when
// the log is empty, a fresh merge of base and log otherwise.
func (e Env) flat() []envEntry {
	if len(e.log) == 0 {
		return e.base
	}
	out := make([]envEntry, 0, len(e.base)+len(e.log))
	e.Each(func(name string, val sym.Expr) { out = append(out, envEntry{name: name, val: val}) })
	return out
}

// Len returns the number of bindings.
func (e Env) Len() int {
	n := 0
	e.Each(func(string, sym.Expr) { n++ })
	return n
}

// Map materializes the environment as a map.
func (e Env) Map() map[string]sym.Expr {
	out := make(map[string]sym.Expr, len(e.base)+len(e.log))
	e.Each(func(name string, val sym.Expr) { out[name] = val })
	return out
}

// NewEnv builds an environment from a map (order-independent; entries are
// sorted).
func NewEnv(m map[string]sym.Expr) Env {
	entries := make([]envEntry, 0, len(m))
	for name, val := range m {
		entries = append(entries, envEntry{name: name, val: val})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return Env{base: entries}
}

// PathCond is a persistent path condition: a singly linked list growing at
// the tail end, so sibling branches share their common prefix as one chain
// and appending a branch constraint is a single small allocation. nil is the
// empty ("true") path condition. The conjunct order (root first) is
// recovered by Slice/AppendTo when a path is emitted or the solver stack is
// synced.
type PathCond struct {
	parent *PathCond
	c      sym.Expr
	n      int // conjunct count including c
}

// Len returns the number of conjuncts.
func (p *PathCond) Len() int {
	if p == nil {
		return 0
	}
	return p.n
}

// Append returns the path condition extended by one conjunct. The receiver
// is shared, not copied.
func (p *PathCond) Append(c sym.Expr) *PathCond {
	return &PathCond{parent: p, c: c, n: p.Len() + 1}
}

// AppendTo materializes the conjuncts in path order (root first) into buf,
// reusing its backing array when it is large enough — the engine's stack
// sync runs on a scratch buffer and allocates nothing in steady state.
func (p *PathCond) AppendTo(buf []sym.Expr) []sym.Expr {
	n := p.Len()
	base := len(buf)
	if cap(buf) < base+n {
		grown := make([]sym.Expr, base, base+n)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:base+n]
	for q := p; q != nil; q = q.parent {
		n--
		buf[base+n] = q.c
	}
	return buf
}

// Slice materializes the conjuncts in path order as a fresh slice.
func (p *PathCond) Slice() []sym.Expr {
	if p == nil {
		return nil
	}
	return p.AppendTo(make([]sym.Expr, 0, p.n))
}

// Trace is a persistent statement trace: the IDs of the statement nodes a
// path executed, as a list growing at the tail end like PathCond, so sibling
// states share their common history and recording a statement is one 16-byte
// cell. nil is the empty trace. Slice materializes it, root first, when a
// path is emitted.
type Trace struct {
	parent *Trace
	id     int32
	n      int32 // statement count including id
}

// Len returns the number of statements.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

// Append returns the trace extended by one statement. The receiver is
// shared, not copied.
func (t *Trace) Append(id int) *Trace {
	return &Trace{parent: t, id: int32(id), n: int32(t.Len() + 1)}
}

// Any reports whether pred holds for some statement of the trace, walking
// from the most recent one back to the root.
func (t *Trace) Any(pred func(id int) bool) bool {
	for q := t; q != nil; q = q.parent {
		if pred(int(q.id)) {
			return true
		}
	}
	return false
}

// Slice materializes the trace in execution order as a fresh exact-size
// slice; the empty trace yields nil.
func (t *Trace) Slice() []int {
	if t == nil {
		return nil
	}
	out := make([]int, t.n)
	for q := t; q != nil; q = q.parent {
		out[q.n-1] = int(q.id)
	}
	return out
}

// State is a symbolic program state: a program location (CFG node), symbolic
// expressions for the program variables, and a path condition (paper §2.1).
type State struct {
	// Node is the next CFG node to execute.
	Node *cfg.Node
	// Env maps every program variable to its current symbolic expression.
	// It is persistent: forked states share it, and a write replaces only
	// the writer's write log.
	Env Env
	// PC is the path condition: the conjunction of branch constraints
	// accumulated along the path to this state, as a prefix-sharing list.
	PC *PathCond
	// Depth is the number of CFG nodes executed before reaching this state.
	Depth int
	// Trace is the sequence of statement-node IDs executed so far, as a
	// shared-tail list: forked states share the parent's cells and each
	// executed statement appends one. Traces power the affected-node-sequence
	// analysis and the Table 1 rendering.
	Trace *Trace
	// Cover is the set of statement-node IDs (sorted, deduplicated) covered
	// by sibling states this state absorbed through merging (merge.go):
	// Trace continues the representative sibling's history, Cover keeps the
	// others' so coverage accounting (DiSE's affected-node bookkeeping)
	// still sees every node any constituent executed. Nil outside merged
	// runs. Forked states share the slice; merges build fresh ones.
	Cover []int
	// Err marks a state that reached the assertion-failure sink.
	Err bool
	// model is a satisfying assignment witnessing PC's feasibility: the
	// initial state's least domain values, or the model of the solver (or
	// memo) verdict that admitted the last branch. When a branch constraint
	// is already satisfied by the parent's model, the child inherits it and
	// no solver call is needed — the dominant case, since exactly one branch
	// outcome agrees with any given model. It is never nil on a state the
	// engine built, and it becomes the Path's Witness.
	model *solver.Model
	// memo is the state's node in the session's execution-tree trie
	// (internal/memo), assigned by the parent's expansion; nil when the
	// engine runs without a memo (Config.Memo).
	memo *memo.Node
}

// MarkMemoPruned records on the state's memo-trie node, if any, that the
// pruner cut this state. Pruning decisions are change-dependent and
// order-sensitive, so they are recorded for observability only — the next
// version's search always re-decides them live (see internal/memo).
func (s *State) MarkMemoPruned() {
	if s.memo != nil {
		s.memo.Pruned = true
	}
}

// EnvString renders the environment deterministically: "x: X, y: Y + X".
func (s *State) EnvString() string {
	var b strings.Builder
	first := true
	s.Env.Each(func(name string, val sym.Expr) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(name)
		b.WriteString(": ")
		b.WriteString(val.String())
	})
	return b.String()
}

// PCString renders the path condition like the paper: "PC: true" when empty.
func (s *State) PCString() string { return sym.Conjoin(s.PC.Slice()) }

// String renders "Loc: n3 | x: X | PC: X > 0".
func (s *State) String() string {
	return "Loc: n" + strconv.Itoa(s.Node.ID) + " | " + s.EnvString() + " | PC: " + s.PCString()
}

// Path is one complete execution path produced by symbolic execution.
type Path struct {
	// PCString is the canonical rendering of the path condition (used for
	// comparing path conditions across techniques and versions).
	PCString string
	// Env is the final symbolic environment (the symbolic summary of the
	// path's effect): the terminal state's persistent Env, shared with it
	// rather than copied into a map.
	Env Env
	// Cover is the sorted set of statement CFG node IDs covered by sibling
	// paths that state merging folded into this one (nil outside merged
	// runs). Coverage accounting should consult Trace ∪ Cover.
	Cover []int
	// Err reports that the path ended in an assertion violation.
	Err bool
	// Witness is a model of the path condition: the exploration's own
	// witness of the path's feasibility, shared read-only with the solver
	// results it came from. Test generation renders it (internal/testgen).
	// Every path an engine collects carries one.
	Witness *solver.Model

	// pc and trace are the terminal state's shared-tail lists, kept as they
	// are: sibling paths share their common prefixes, and the slices PC and
	// Trace return are built only when asked for.
	pc    *PathCond
	trace *Trace
}

// PC returns the path condition's conjuncts in path order, as a fresh
// slice.
func (p Path) PC() []sym.Expr { return p.pc.Slice() }

// Trace returns the statement CFG node IDs the path executed, in order, as
// a fresh slice.
func (p Path) Trace() []int { return p.trace.Slice() }

// Summary is the result of a symbolic execution run: the set of path
// conditions plus cost counters, i.e. the "symbolic summary" of §2.1.
type Summary struct {
	Paths []Path
	Stats Stats
}

// PathList accumulates a run's paths in chunks that double in size, and
// Paths flattens them into one slice: each path is copied once, and a
// result of more than one chunk keeps no spare capacity — where growing one
// slice path by path copies the early paths again at every growth and keeps
// up to half its capacity unused. The zero value is empty.
type PathList struct {
	chunks [][]Path
}

// Add appends p.
func (l *PathList) Add(p Path) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		size := 16
		if last >= 0 {
			size = min(2*cap(l.chunks[last]), 4096)
		}
		l.chunks = append(l.chunks, make([]Path, 0, size))
		last++
	}
	l.chunks[last] = append(l.chunks[last], p)
}

// Paths returns the paths in the order they were added, nil when there are
// none.
func (l *PathList) Paths() []Path {
	switch len(l.chunks) {
	case 0:
		return nil
	case 1:
		return l.chunks[0]
	}
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	out := make([]Path, 0, n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// PathConditions returns the rendered path conditions in exploration order.
func (s *Summary) PathConditions() []string {
	out := make([]string, len(s.Paths))
	for i, p := range s.Paths {
		out[i] = p.PCString
	}
	return out
}

// ErrorPaths returns only the paths that ended in assertion violations.
func (s *Summary) ErrorPaths() []Path {
	var out []Path
	for _, p := range s.Paths {
		if p.Err {
			out = append(out, p)
		}
	}
	return out
}
