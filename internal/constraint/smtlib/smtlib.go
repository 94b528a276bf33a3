// Package smtlib is the external-process constraint backend: it speaks
// incremental SMT-LIB2 (push/pop/assert/check-sat/get-value) to a
// supervised solver subprocess — z3, cvc5, or any binary reading commands
// on stdin — mirroring the engine's assertion-stack discipline 1:1 so
// sibling checks ship only their delta.
//
// Talking to a child process is first and foremost a robustness problem:
// the binary may be absent, crash mid-check, hang, or emit garbage. The
// package's contract is that none of that can change an analysis verdict.
// Every external failure mode degrades the attempt to "no answer" through
// a supervision ladder (per-check deadline → kill → bounded restart with
// jittered backoff → circuit breaker → permanently disabled; session.go),
// and an embedded in-process fallback — the default interval backend,
// mirroring the same assertion stack — then supplies the verdict. The
// external solver can only ever *add* definitive answers (each sat model
// strictly validated against the asserted stack before it is trusted);
// degradation moves Stats counters (ExtUnknowns, ExtRestarts,
// ExtBreakerTrips, ...), never the path set.
package smtlib

import (
	"fmt"
	"sort"

	"dise/internal/constraint"
	"dise/internal/solver"
	"dise/internal/sym"
)

// Name is the registry name of the backend.
const Name = "smtlib"

func init() {
	constraint.Register(Name, New)
}

// frame is one assertion frame: the constraints the engine asserted and
// their rendered SMT-LIB2 forms. A frame holding any constraint outside
// the printer's fragment is unsupported: the external layer skips every
// Check whose stack contains one (the fallback still has it, so the
// verdict is unaffected).
type frame struct {
	conds       []sym.Expr
	lines       []string
	unsupported bool
}

type backend struct {
	fallback constraint.Backend
	sess     *session
	frames   []*frame
	stats    constraint.Stats
	declared map[string]bool
	domains  map[string]solver.Interval
	index    *solver.Index // lays out adopted external models
	vars     []string      // declared variable names, sorted (get-value order)
	extOK    bool          // every domain variable is declarable
}

// New builds the smtlib backend: an interval fallback mirroring the same
// stack, plus a supervised external session. Construction never probes
// the solver binary — a missing or broken binary surfaces as degraded
// Checks, not as an error — so engine construction cannot fail on solver
// health.
func New(opts constraint.Options) (constraint.Backend, error) {
	fallback, err := constraint.New(constraint.BackendInterval, opts)
	if err != nil {
		return nil, err
	}
	b := &backend{
		fallback: fallback,
		frames:   []*frame{{}},
		declared: make(map[string]bool, len(opts.Domains)),
		domains:  opts.Domains,
		index:    solver.NewIndex(opts.Domains),
		extOK:    true,
	}
	for name := range opts.Domains {
		if !validName(name) {
			// A variable the printer cannot declare means external models
			// could never be complete; leave every Check to the fallback.
			b.extOK = false
			continue
		}
		b.declared[name] = true
		b.vars = append(b.vars, name)
	}
	sort.Strings(b.vars)
	prelude := append([]string(nil), preludeDefs...)
	for _, name := range b.vars {
		d := opts.Domains[name]
		prelude = append(prelude,
			fmt.Sprintf("(declare-const %s Int)", name),
			fmt.Sprintf("(assert (>= %s %s))", name, intLit(d.Lo)),
			fmt.Sprintf("(assert (<= %s %s))", name, intLit(d.Hi)))
	}
	b.sess = newSession(opts.SMT, opts.Interrupt, prelude, &b.stats)
	return b, nil
}

// intLit renders an int64 as an SMT-LIB term.
func intLit(v int64) string {
	if v < 0 {
		return fmt.Sprintf("(- %d)", uint64(-(v+1))+1)
	}
	return fmt.Sprintf("%d", v)
}

func (b *backend) Push() {
	b.fallback.Push()
	b.stats.PushedFrames++
	b.frames = append(b.frames, &frame{})
}

func (b *backend) Pop() {
	if len(b.frames) == 1 {
		panic("smtlib: Pop of the base frame (push/pop imbalance)")
	}
	b.fallback.Pop()
	b.stats.PoppedFrames++
	b.frames = b.frames[:len(b.frames)-1]
}

func (b *backend) Assert(c sym.Expr) {
	b.fallback.Assert(c)
	b.stats.Asserts++
	top := b.frames[len(b.frames)-1]
	top.conds = append(top.conds, c)
	if b.extOK && !top.unsupported {
		line, err := renderAssert(c, b.declared)
		if err != nil {
			top.unsupported = true
			top.lines = nil
			return
		}
		top.lines = append(top.lines, line)
	}
}

func (b *backend) Check() constraint.Result {
	b.stats.Checks++
	res := b.check()
	b.stats.Tally(res)
	return res
}

// check tries the external solver first; any rung of the degradation
// ladder (or an unsupported stack, or an external "unknown") counts an
// ExtUnknown and hands the verdict to the in-process fallback. The
// fallback decides from the identical assertion stack, so the two layers
// can only differ in who answered, never in what.
func (b *backend) check() constraint.Result {
	if b.external() {
		if res, err := b.sess.check(b.rendered(), b.vars, b.adopt); err == nil {
			b.stats.ExtAnswers++
			return res
		}
		b.stats.ExtUnknowns++
	} else {
		b.stats.ExtUnknowns++
	}
	b.stats.FallbackSolves++
	return b.fallback.Check()
}

// external reports whether the current stack is eligible for the external
// solver at all.
func (b *backend) external() bool {
	if !b.extOK {
		return false
	}
	for _, f := range b.frames {
		if f.unsupported {
			return false
		}
	}
	return true
}

// rendered materializes the per-frame assert lines for the session's
// stack sync.
func (b *backend) rendered() [][]string {
	out := make([][]string, len(b.frames))
	for i, f := range b.frames {
		out[i] = f.lines
	}
	return out
}

// adopt vets an external sat model before it is trusted — every declared
// variable present (parseValues guarantees that), inside its domain, and
// the full asserted stack actually satisfied under the IR's own evaluator —
// and lays it out over the input index. Trust-but-verify is what lets the
// backend adopt answers from an arbitrary binary without widening the
// engine's trusted base.
func (b *backend) adopt(values map[string]int64) (*solver.Model, error) {
	for name, d := range b.domains {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("variable %s missing", name)
		}
		if v < d.Lo || v > d.Hi {
			return nil, fmt.Errorf("%s = %d outside domain [%d, %d]", name, v, d.Lo, d.Hi)
		}
	}
	model := solver.NewModel(b.index, values)
	for _, f := range b.frames {
		for _, c := range f.conds {
			v, err := solver.EvalInt01(c, model)
			if err != nil {
				return nil, fmt.Errorf("evaluating %v: %v", c, err)
			}
			if v == 0 {
				return nil, fmt.Errorf("constraint %v not satisfied", c)
			}
		}
	}
	return model, nil
}

func (b *backend) Caps() constraint.Caps {
	return constraint.Caps{Name: Name, PrefixReuse: true}
}

// Stats reports the backend's own stack/verdict/resilience counters plus
// the fallback's reuse counters (cache hits, snapshots, search nodes), so
// the incremental machinery stays observable through the smtlib wrapper.
func (b *backend) Stats() constraint.Stats {
	st := b.stats
	st.Backend = Name
	fb := b.fallback.Stats()
	st.CacheHits += fb.CacheHits
	st.CacheMisses += fb.CacheMisses
	st.ModelReuses += fb.ModelReuses
	st.BoxConflicts += fb.BoxConflicts
	st.FullSolves += fb.FullSolves
	st.SearchNodes += fb.SearchNodes
	st.Propagations += fb.Propagations
	st.BoxSnapshots += fb.BoxSnapshots
	st.FrameMemoHits += fb.FrameMemoHits
	return st
}

func (b *backend) ResetStats() {
	b.stats = constraint.Stats{}
	b.fallback.ResetStats()
}
