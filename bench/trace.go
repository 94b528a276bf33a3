package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// layer is one pipeline layer a traced op attributes its time to.
type layer int

const (
	layLang layer = iota
	layCfg
	layDiff
	layAffected
	laySymexec
	layConstraint
	layMemoRekey
	layMemoEnforce
	layTestgenRebuild
	layTestgen
	nLayers
)

// layerNames are the span names of the layers.
var layerNames = [nLayers]string{
	"lang", "cfg", "diff", "dise.affected", "symexec", "constraint",
	"memo.rekey", "memo.enforce", "testgen.rebuild", "testgen",
}

// span is one line of the spans file. Times are nanoseconds since the
// tracer started. Constraint spans are aggregated per op and parent layer:
// one span whose length is the summed check time and whose calls field
// counts the checks.
type span struct {
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

// counters are the work counts of a run's traced ops, summed.
type counters struct {
	langCalls, langBytes, cfgCalls, cfgNodes  int
	changedNodes, affectedNodes, prunedStates int
	states, infeasible                        int
	memoOps, memoHits, replayed, live         int
	kept, invalidated, trieNodes              int
	trieBytes                                 int64
	tests                                     int
	parseHits, parseMisses                    int64
	prefixHits, prefixMisses                  int64
}

// layerTimes are self times per layer plus the op residual (the time no
// layer span covers: the facade glue around the layer calls).
type layerTimes struct {
	self     [nLayers]time.Duration
	residual time.Duration
	ops      int
}

// tracer records the spans and counters of traced ops. Spans stay in
// memory until the workload writes them out. It is used from one goroutine.
type tracer struct {
	epoch time.Time
	clock *checkClock
	spans []span
	opID  int

	// The op in progress.
	opStart time.Time
	cur     layerTimes
	covered time.Duration // summed length of the op's top-level spans

	// Run totals: layer times overall and per op group (e.g. per
	// artifact), constraint work, and work counts.
	total  layerTimes
	groups map[string]*layerTimes
	solver checkClock
	count  counters
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), clock: timedSolver(), groups: map[string]*layerTimes{}}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) beginOp() {
	t.opID++
	t.cur = layerTimes{}
	t.covered = 0
	t.opStart = time.Now()
}

// do runs fn as one top-level span of layer l. Constraint checks made
// inside it become an aggregated child span and are subtracted from the
// layer's self time.
func (t *tracer) do(l layer, fn func()) {
	before := *t.clock
	start := time.Now()
	fn()
	end := time.Now()
	solved := t.clock.sub(before)
	t.spans = append(t.spans, span{OpID: t.opID, Name: layerNames[l], Parent: "op", Start: t.ns(start), End: t.ns(end)})
	if solved.checks > 0 {
		t.spans = append(t.spans, span{
			OpID: t.opID, Name: layerNames[layConstraint], Parent: layerNames[l],
			Start: t.ns(start), End: t.ns(start) + int64(solved.total), Calls: solved.checks,
		})
	}
	t.cur.self[l] += end.Sub(start) - solved.total
	t.cur.self[layConstraint] += solved.total
	t.covered += end.Sub(start)
	t.solver.add(solved)
}

// endOp closes the op, files its times under group, and returns its wall
// time. It reports false when the op's layer spans overlap, i.e. their sum
// exceeds the op's wall time.
func (t *tracer) endOp(group string) (time.Duration, bool) {
	end := time.Now()
	wall := end.Sub(t.opStart)
	t.spans = append(t.spans, span{OpID: t.opID, Name: "op", Parent: "", Start: t.ns(t.opStart), End: t.ns(end)})
	t.cur.residual = wall - t.covered
	ok := t.cur.residual >= 0
	g := t.groups[group]
	if g == nil {
		g = &layerTimes{}
		t.groups[group] = g
	}
	for _, lt := range []*layerTimes{&t.total, g} {
		for l := range lt.self {
			lt.self[l] += t.cur.self[l]
		}
		lt.residual += t.cur.residual
		lt.ops++
	}
	return wall, ok
}

// topLayers names the three largest self-time shares of a group's ops.
func (lt *layerTimes) topLayers() string {
	type share struct {
		name string
		d    time.Duration
	}
	var all []share
	var whole time.Duration
	for l, d := range lt.self {
		all = append(all, share{layerNames[l], d})
		whole += d
	}
	all = append(all, share{"facade.residual", lt.residual})
	whole += lt.residual
	sort.SliceStable(all, func(i, j int) bool { return all[i].d > all[j].d })
	var parts []string
	for _, s := range all[:3] {
		parts = append(parts, fmt.Sprintf("%s %.0f%% (%.3f ms/op)",
			s.name, 100*ratio(float64(s.d), float64(whole)), ms(s.d)/float64(lt.ops)))
	}
	return strings.Join(parts, ", ")
}

// notes lists the top self-time layers of every op group, in group order.
func (t *tracer) notes() []string {
	names := make([]string, 0, len(t.groups))
	for name := range t.groups {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		g := t.groups[name]
		out = append(out, fmt.Sprintf("top self-time layers, %s (%d traced ops): %s", name, g.ops, g.topLayers()))
	}
	return out
}

// report sets every layer metric the tracer measured.
func (t *tracer) report(r *result) {
	ops := float64(t.total.ops)
	c, s := t.count, t.solver
	per := func(n int) float64 { return ratio(float64(n), ops) }
	perMs := func(d time.Duration) float64 { return ratio(ms(d), ops) }
	self := t.total.self
	m := r.Metrics

	m["lang.calls"] = per(c.langCalls)
	m["lang.ms"] = perMs(self[layLang])
	m["lang.kb_per_s"] = ratio(float64(c.langBytes)/1024, self[layLang].Seconds())
	m["cfg.calls"] = per(c.cfgCalls)
	m["cfg.ms"] = perMs(self[layCfg])
	m["cfg.nodes"] = per(c.cfgNodes)
	m["diff.ms"] = perMs(self[layDiff])
	m["diff.changed_nodes"] = per(c.changedNodes)
	m["dise.affected_ms"] = perMs(self[layAffected])
	m["dise.affected_nodes"] = per(c.affectedNodes)
	m["dise.pruned_states"] = per(c.prunedStates)
	m["dise.prune_ratio"] = ratio(float64(c.prunedStates), float64(c.prunedStates+c.states))
	m["facade.parse_cache_hit_ratio"] = ratio(float64(c.parseHits), float64(c.parseHits+c.parseMisses))
	m["facade.prefix_cache_hit_ratio"] = ratio(float64(c.prefixHits), float64(c.prefixHits+c.prefixMisses))
	m["facade.residual_ms"] = perMs(t.total.residual)
	m["symexec.explore_ms"] = perMs(self[laySymexec])
	m["symexec.states"] = per(c.states)
	m["symexec.states_per_s"] = ratio(float64(c.states), self[laySymexec].Seconds())
	m["symexec.infeasible"] = per(c.infeasible)
	m["constraint.checks"] = per(s.checks)
	m["constraint.ms"] = perMs(s.total)
	m["constraint.full_solves"] = per(s.fullSolves)
	m["constraint.full_solve_ms"] = perMs(s.full)
	m["constraint.cache_hits"] = per(s.cacheHits)
	m["constraint.model_reuses"] = per(s.modelReuses)
	m["constraint.box_conflicts"] = per(s.boxConflicts)
	m["constraint.frame_memo_hits"] = per(s.frameMemoHits)
	m["constraint.reused_ms"] = perMs(s.reused)
	m["constraint.reuse_ratio"] = ratio(float64(s.checks-s.fullSolves), float64(s.checks))
	m["constraint.search_nodes"] = per(s.searchNodes)
	m["constraint.asserts"] = per(s.asserts)
	m["memo.rekey_ms"] = perMs(self[layMemoRekey])
	m["memo.enforce_ms"] = perMs(self[layMemoEnforce])
	m["memo.hits"] = per(c.memoHits)
	m["memo.replay_ratio"] = ratio(float64(c.replayed), float64(c.replayed+c.live))
	m["memo.nodes_kept"] = per(c.kept)
	m["memo.nodes_invalidated"] = per(c.invalidated)
	m["memo.trie_nodes"] = ratio(float64(c.trieNodes), float64(c.memoOps))
	m["memo.trie_mb"] = ratio(float64(c.trieBytes)/(1<<20), float64(c.memoOps))
	m["testgen.ms"] = perMs(self[layTestgen])
	m["testgen.rebuild_ms"] = perMs(self[layTestgenRebuild])
	m["testgen.tests"] = per(c.tests)
	m["testgen.tests_per_s"] = ratio(float64(c.tests), self[layTestgen].Seconds())
}

// writeSpanFile writes spans as JSON lines.
func writeSpanFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
