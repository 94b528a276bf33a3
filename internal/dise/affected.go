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
// pre-processing step in §3.1).
type NodeMarks struct {
	// Base maps base-CFG nodes to removed/changed/unchanged.
	Base map[*cfg.Node]diff.Mark
	// Mod maps mod-CFG nodes to added/changed/unchanged.
	Mod map[*cfg.Node]diff.Mark
	// DiffMap maps base-CFG nodes to their counterpart in the modified CFG;
	// removed nodes are absent (the paper's "get returns the empty set").
	DiffMap map[*cfg.Node]*cfg.Node
}

// LiftMarks projects a diff result onto the two CFGs.
func LiftMarks(d *diff.Result, gBase, gMod *cfg.Graph) *NodeMarks {
	nm := &NodeMarks{
		Base:    map[*cfg.Node]diff.Mark{},
		Mod:     map[*cfg.Node]diff.Mark{},
		DiffMap: map[*cfg.Node]*cfg.Node{},
	}
	for stmt, mark := range d.BaseMarks {
		if n := gBase.NodeFor(stmt); n != nil {
			nm.Base[n] = mark
		}
	}
	for stmt, mark := range d.ModMarks {
		if n := gMod.NodeFor(stmt); n != nil {
			nm.Mod[n] = mark
		}
	}
	for bStmt, mStmt := range d.Pairs {
		bn := gBase.NodeFor(bStmt)
		mn := gMod.NodeFor(mStmt)
		if bn != nil && mn != nil {
			nm.DiffMap[bn] = mn
		}
	}
	return nm
}

// Affected holds the affected-location sets over the modified CFG.
type Affected struct {
	Graph *cfg.Graph
	// ACN is the set of affected conditional branch nodes (by node ID).
	ACN map[int]bool
	// AWN is the set of affected write nodes (by node ID).
	AWN map[int]bool
	// ChangedNodes counts CFG nodes directly marked by the diff: changed or
	// added in the modified CFG plus removed in the base CFG (the "Changed"
	// column of the paper's Table 2).
	ChangedNodes int
}

// Contains reports whether node ID is affected (member of ACN ∪ AWN).
func (a *Affected) Contains(id int) bool { return a.ACN[id] || a.AWN[id] }

// Size returns |ACN| + |AWN| (the "Affected" column of Table 2).
func (a *Affected) Size() int { return len(a.ACN) + len(a.AWN) }

// ACNLines returns the sorted source lines of affected conditional nodes.
func (a *Affected) ACNLines() []int { return nodeLines(a.Graph, a.ACN) }

// AWNLines returns the sorted source lines of affected write nodes.
func (a *Affected) AWNLines() []int { return nodeLines(a.Graph, a.AWN) }

func nodeLines(g *cfg.Graph, set map[int]bool) []int {
	var out []int
	for id := range set {
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
	a := &Affected{Graph: gMod, ACN: map[int]bool{}, AWN: map[int]bool{}}

	// removeNodes (Fig. 5(a)): compute nodes of the base CFG influenced by
	// removed instructions, then map them into the modified CFG.
	removedACN := map[int]bool{}
	removedAWN := map[int]bool{}
	anyRemoved := false
	for n, mark := range nm.Base {
		if mark != diff.Removed {
			continue
		}
		anyRemoved = true
		switch {
		case n.IsCond():
			removedACN[n.ID] = true
		case n.IsWrite():
			removedAWN[n.ID] = true
		}
		a.ChangedNodes++
	}
	if anyRemoved {
		applyRules(gBase, removedACN, removedAWN, opts)
		if !opts.SkipEq4 {
			applyEq4(gBase, removedACN, removedAWN)
		}
		// updateSets: map base nodes through diffMap; removed nodes (absent
		// from the map) drop out.
		for id := range removedACN {
			if mn, ok := nm.DiffMap[gBase.Nodes[id]]; ok && mn.IsCond() {
				a.ACN[mn.ID] = true
			}
		}
		for id := range removedAWN {
			if mn, ok := nm.DiffMap[gBase.Nodes[id]]; ok && mn.IsWrite() {
				a.AWN[mn.ID] = true
			}
		}
	}

	// Seed with changed and added nodes of the modified CFG.
	for n, mark := range nm.Mod {
		if mark != diff.Changed && mark != diff.Added {
			continue
		}
		a.ChangedNodes++
		switch {
		case n.IsCond():
			a.ACN[n.ID] = true
		case n.IsWrite():
			a.AWN[n.ID] = true
		}
	}

	applyRules(gMod, a.ACN, a.AWN, opts)
	if !opts.SkipEq4 {
		applyEq4(gMod, a.ACN, a.AWN)
	}
	return a
}

// applyRules iterates Eq. (1), (2) and (3) of Fig. 3 until the sets stop
// growing — plus, when enabled, the transitive-writes extension rule.
// Termination: the sets only grow and are bounded by |N|.
func applyRules(g *cfg.Graph, acn, awn map[int]bool, opts Options) {
	//diselint:ignore interruptloop bounded fixpoint: the sets only grow and are capped at |N|
	for changed := true; changed; {
		changed = false
		// Eq. (1) and Eq. (2): control dependence on an affected conditional.
		for id := range acn {
			ni := g.Nodes[id]
			for _, nj := range g.Nodes {
				if !g.ControlD(ni, nj) {
					continue
				}
				switch {
				case nj.IsCond() && !acn[nj.ID]:
					acn[nj.ID] = true
					changed = true
				case nj.IsWrite() && !awn[nj.ID]:
					awn[nj.ID] = true
					changed = true
				}
			}
		}
		// Eq. (3): conditionals that use a variable defined at an affected
		// write, with a CFG path from the write to the use.
		for id := range awn {
			ni := g.Nodes[id]
			if ni.Def == "" {
				continue
			}
			for _, nj := range g.Nodes {
				if !nj.IsCond() || acn[nj.ID] || !nj.Use[ni.Def] {
					continue
				}
				if g.IsCFGPath(ni, nj) {
					acn[nj.ID] = true
					changed = true
				}
			}
		}
		// Extension: forward write→write dataflow (Options.TransitiveWrites).
		if opts.TransitiveWrites {
			for id := range awn {
				ni := g.Nodes[id]
				if ni.Def == "" {
					continue
				}
				for _, nj := range g.Nodes {
					if !nj.IsWrite() || awn[nj.ID] || !nj.Use[ni.Def] {
						continue
					}
					if g.IsCFGPath(ni, nj) {
						awn[nj.ID] = true
						changed = true
					}
				}
			}
		}
	}
}

// applyEq4 iterates Eq. (4) of Fig. 4 until fixpoint: any write whose
// definition may reach a use at an affected node becomes an affected write.
func applyEq4(g *cfg.Graph, acn, awn map[int]bool) {
	//diselint:ignore interruptloop bounded fixpoint: the sets only grow and are capped at |N|
	for changed := true; changed; {
		changed = false
		for _, ni := range g.Nodes {
			if !ni.IsWrite() || awn[ni.ID] || ni.Def == "" {
				continue
			}
			// Eq. (4) quantifies over acn ∪ awn; checking each set in turn
			// avoids materializing the union on every fixpoint iteration
			// (revisiting an id in both sets is harmless — the predicate is
			// pure).
			if defReachesUse(g, ni, acn) || defReachesUse(g, ni, awn) {
				awn[ni.ID] = true
				changed = true
			}
		}
	}
}

// defReachesUse reports whether ni's definition may reach a use at any node
// of set. The result is a plain disjunction, so map order cannot leak out.
func defReachesUse(g *cfg.Graph, ni *cfg.Node, set map[int]bool) bool {
	for id := range set {
		nj := g.Nodes[id]
		if nj.Use[ni.Def] && g.IsCFGPath(ni, nj) {
			return true
		}
	}
	return false
}
