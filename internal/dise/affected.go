// Package dise implements Directed Incremental Symbolic Execution
// (Person, Yang, Rungta, Khurshid — PLDI 2011).
//
// DiSE has two phases (paper §3.1):
//
//  1. a conservative intra-procedural static analysis computes the affected
//     conditional nodes (ACN) and affected write nodes (AWN) of the modified
//     CFG from the diff marks, via the fixpoint rules Eq. (1)–(3) of Fig. 3,
//     the reaching-definitions rule Eq. (4) of Fig. 4, and the removeNodes
//     algorithm of Fig. 5(a) for instructions deleted from the base version;
//
//  2. a directed symbolic execution (Fig. 6) explores, for every sequence of
//     affected nodes on a feasible path, exactly one path (Theorem 3.10),
//     pruning the exploration of paths that differ only in unaffected code.
//
// This file implements phase 1.
package dise

import (
	"sort"

	"dise/internal/cfg"
	"dise/internal/diff"
)

// NodeMarks lifts statement-level diff marks onto CFG nodes (the paper's
// pre-processing step in §3.1). Every slice is indexed by node ID.
type NodeMarks struct {
	// Base marks each base-CFG node removed, changed or unchanged; nodes
	// without a statement (begin, end, the assert-failure sink) are
	// unchanged.
	Base []diff.Mark
	// Mod marks each mod-CFG node added, changed or unchanged.
	Mod []diff.Mark
	// DiffMap maps a base-CFG node to the ID of its counterpart in the
	// modified CFG, or -1: removed nodes have none (the paper's "get
	// returns the empty set").
	DiffMap []int32
}

// LiftMarks projects a diff result onto the two CFGs.
func LiftMarks(d *diff.Result, gBase, gMod *cfg.Graph) *NodeMarks {
	nm := &NodeMarks{
		Base:    make([]diff.Mark, len(gBase.Nodes)),
		Mod:     make([]diff.Mark, len(gMod.Nodes)),
		DiffMap: make([]int32, len(gBase.Nodes)),
	}
	for _, n := range gBase.Nodes {
		nm.DiffMap[n.ID] = -1
		if n.Stmt == nil {
			continue
		}
		nm.Base[n.ID] = d.BaseMarks[n.Stmt]
		if ms, ok := d.Pairs[n.Stmt]; ok {
			if mn := gMod.NodeFor(ms); mn != nil {
				nm.DiffMap[n.ID] = int32(mn.ID)
			}
		}
	}
	for _, n := range gMod.Nodes {
		if n.Stmt != nil {
			nm.Mod[n.ID] = d.ModMarks[n.Stmt]
		}
	}
	return nm
}

// Affected holds the affected-location sets over the modified CFG.
type Affected struct {
	Graph *cfg.Graph
	// ACN is the set of affected conditional branch nodes, over node IDs.
	ACN cfg.Bitset
	// AWN is the set of affected write nodes, over node IDs.
	AWN cfg.Bitset
	// ChangedNodes counts CFG nodes directly marked by the diff: changed or
	// added in the modified CFG plus removed in the base CFG (the "Changed"
	// column of the paper's Table 2).
	ChangedNodes int
}

// Contains reports whether node ID is affected (member of ACN ∪ AWN).
func (a *Affected) Contains(id int) bool { return a.ACN.Has(id) || a.AWN.Has(id) }

// Size returns |ACN| + |AWN| (the "Affected" column of Table 2).
func (a *Affected) Size() int { return a.ACN.Count() + a.AWN.Count() }

// ACNLines returns the sorted source lines of affected conditional nodes.
func (a *Affected) ACNLines() []int { return nodeLines(a.Graph, a.ACN) }

// AWNLines returns the sorted source lines of affected write nodes.
func (a *Affected) AWNLines() []int { return nodeLines(a.Graph, a.AWN) }

func nodeLines(g *cfg.Graph, set cfg.Bitset) []int {
	var out []int
	for id := set.Next(0); id >= 0; id = set.Next(id + 1) {
		out = append(out, g.Nodes[id].Line)
	}
	sort.Ints(out)
	return out
}

// Options tunes the affected-set computation, mostly for ablation studies.
type Options struct {
	// SkipEq4 disables the reaching-definitions rule of Fig. 4. The analysis
	// then under-approximates: in the paper's example it loses node n5 (the
	// write feeding the affected conditionals). Used by ablation benchmarks.
	SkipEq4 bool
	// TransitiveWrites is an extension beyond the published rules: it adds
	// the forward dataflow rule
	//
	//	if ni ∈ AWN ∧ nj ∈ Write ∧ Def(ni) ∈ Use(nj) ∧ IsCFGPath(ni, nj)
	//	then AWN := AWN ∪ {nj}
	//
	// closing the write→write chain gap of the published Eq. (1)–(4): with
	// it, a change to "x = ..." also affects a later "y = x" and, through
	// Eq. (3), a conditional on y. Off by default to stay faithful to the
	// paper.
	TransitiveWrites bool
}

// ComputeAffected runs phase 1 of DiSE: it lifts the diff marks onto the
// CFGs, runs the removeNodes algorithm for instructions removed from the
// base version, seeds the sets with changed/added nodes of the modified
// version, and applies the rules of Fig. 3 and Fig. 4 to a fixed point.
func ComputeAffected(gBase, gMod *cfg.Graph, d *diff.Result, opts Options) *Affected {
	nm := LiftMarks(d, gBase, gMod)
	a := &Affected{Graph: gMod, ACN: cfg.NewBitset(len(gMod.Nodes)), AWN: cfg.NewBitset(len(gMod.Nodes))}

	// removeNodes (Fig. 5(a)): compute nodes of the base CFG influenced by
	// removed instructions, then map them into the modified CFG.
	removedACN := cfg.NewBitset(len(gBase.Nodes))
	removedAWN := cfg.NewBitset(len(gBase.Nodes))
	anyRemoved := false
	for id, mark := range nm.Base {
		if mark != diff.Removed {
			continue
		}
		anyRemoved = true
		seed(gBase.Nodes[id], removedACN, removedAWN)
		a.ChangedNodes++
	}
	if anyRemoved {
		closeSets(gBase, removedACN, removedAWN, opts)
		// updateSets: map base nodes through diffMap; removed nodes (absent
		// from the map) drop out.
		mapSet(gMod, nm.DiffMap, removedACN, a.ACN, (*cfg.Node).IsCond)
		mapSet(gMod, nm.DiffMap, removedAWN, a.AWN, (*cfg.Node).IsWrite)
	}

	// Seed with changed and added nodes of the modified CFG.
	for id, mark := range nm.Mod {
		if mark != diff.Changed && mark != diff.Added {
			continue
		}
		a.ChangedNodes++
		seed(gMod.Nodes[id], a.ACN, a.AWN)
	}

	closeSets(gMod, a.ACN, a.AWN, opts)
	return a
}

// seed adds a conditional to acn or a write to awn.
func seed(n *cfg.Node, acn, awn cfg.Bitset) {
	switch {
	case n.IsCond():
		acn.Set(n.ID)
	case n.IsWrite():
		awn.Set(n.ID)
	}
}

// mapSet adds to dst the modified-CFG counterpart of every member of src
// that has one of the wanted kind.
func mapSet(gMod *cfg.Graph, diffMap []int32, src, dst cfg.Bitset, kind func(*cfg.Node) bool) {
	for id := src.Next(0); id >= 0; id = src.Next(id + 1) {
		if mn := diffMap[id]; mn >= 0 && kind(gMod.Nodes[mn]) {
			dst.Set(int(mn))
		}
	}
}

// closeSets runs the two stages of Fig. 3 and Fig. 4 on one graph: Eq.
// (1)–(3), plus the extension when enabled, to their fixed point, then Eq.
// (4) alone to its own. Eq. (4) only adds writes, and nothing it adds
// re-enters Eq. (1)–(3).
func closeSets(g *cfg.Graph, acn, awn cfg.Bitset, opts Options) {
	du := indexDefUse(g)
	applyRules(g, du, acn, awn, opts)
	if !opts.SkipEq4 {
		applyEq4(g, du, acn, awn)
	}
}

// defUse lists, per variable, the nodes whose Use contains it
// (Definition 3.7) and the write nodes that define it (Definition 3.6), in
// ID order.
type defUse struct{ uses, defs map[string][]*cfg.Node }

func indexDefUse(g *cfg.Graph) defUse {
	du := defUse{uses: map[string][]*cfg.Node{}, defs: map[string][]*cfg.Node{}}
	for _, n := range g.Nodes {
		for _, v := range n.Use {
			du.uses[v] = append(du.uses[v], n)
		}
		if n.Def != "" {
			du.defs[n.Def] = append(du.defs[n.Def], n)
		}
	}
	return du
}

// members lists the members of the given sets in ascending ID order, set
// by set.
func members(sets ...cfg.Bitset) []int {
	var out []int
	for _, s := range sets {
		for id := s.Next(0); id >= 0; id = s.Next(id + 1) {
			out = append(out, id)
		}
	}
	return out
}

// applyRules closes the sets under Eq. (1), (2) and (3) of Fig. 3 — plus,
// when enabled, the transitive-writes extension rule — with a worklist:
// each node is expanded once, when it joins ACN or AWN. A conditional
// contributes its control dependents (Eq. 1–2); a write with a definition
// contributes the conditionals (Eq. 3) and, under the extension, the writes
// that use the variable and that it reaches.
func applyRules(g *cfg.Graph, du defUse, acn, awn cfg.Bitset, opts Options) {
	work := members(acn, awn)
	add := func(nj *cfg.Node) {
		switch {
		case nj.IsCond() && !acn.Has(nj.ID):
			acn.Set(nj.ID)
		case nj.IsWrite() && !awn.Has(nj.ID):
			awn.Set(nj.ID)
		default:
			return
		}
		work = append(work, nj.ID)
	}
	//diselint:ignore interruptloop bounded worklist: a node is pushed only when it joins ACN or AWN, so at most |N| pops
	for len(work) > 0 {
		ni := g.Nodes[work[len(work)-1]]
		work = work[:len(work)-1]
		switch {
		case ni.IsCond():
			for _, nj := range g.ControlDependents(ni) {
				add(nj)
			}
		case ni.IsWrite() && ni.Def != "":
			for _, nj := range du.uses[ni.Def] {
				if (nj.IsCond() || opts.TransitiveWrites && nj.IsWrite()) && g.Reaches(ni.ID, nj.ID) {
					add(nj)
				}
			}
		}
	}
}

// applyEq4 closes AWN under Eq. (4) of Fig. 4 with a worklist: any write
// whose definition may reach a use at an affected node becomes an affected
// write. Each member of ACN ∪ AWN is expanded once, against the writes of
// every variable it uses.
func applyEq4(g *cfg.Graph, du defUse, acn, awn cfg.Bitset) {
	work := members(acn, awn)
	//diselint:ignore interruptloop bounded worklist: a node is pushed only when it joins AWN, so at most |N| pops
	for len(work) > 0 {
		nj := g.Nodes[work[len(work)-1]]
		work = work[:len(work)-1]
		for _, v := range nj.Use {
			for _, ni := range du.defs[v] {
				if !awn.Has(ni.ID) && g.Reaches(ni.ID, nj.ID) {
					awn.Set(ni.ID)
					work = append(work, ni.ID)
				}
			}
		}
	}
}
