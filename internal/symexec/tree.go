package symexec

import (
	"fmt"
	"strings"
)

// TreeNode is a node of the symbolic execution tree (paper §2.1, Fig. 1):
// each node is a symbolic program state and each edge a transition between
// states.
type TreeNode struct {
	State    *State
	Children []*TreeNode
	// EdgeText describes the transition that produced this node, e.g.
	// "1: if (x > 0)" for the branch taken or the assignment text.
	EdgeText string
}

// BuildTree runs full symbolic execution while recording the symbolic
// execution tree. It is intended for small illustrative programs (the tree
// grows with the number of states).
func (e *Engine) BuildTree() *TreeNode {
	root := &TreeNode{State: e.InitialState()}
	e.growTree(root)
	return root
}

func (e *Engine) growTree(t *TreeNode) {
	for _, succ := range e.Successors(t.State) {
		edge := ""
		if n := t.State.Node; n.Line > 0 {
			edge = fmt.Sprintf("%d: %s", n.Line, n.Text())
		}
		child := &TreeNode{State: succ, EdgeText: edge}
		t.Children = append(t.Children, child)
		e.growTree(child)
	}
}

// Render prints the tree with box-drawing indentation, one state per line,
// in the spirit of Fig. 1:
//
//	Loc: n0 | x: X, y: Y | PC: true
//	├── [1: x > 0] Loc: n1 | ... | PC: X > 0
//	└── [1: x > 0] Loc: n3 | ... | PC: X <= 0
func (t *TreeNode) Render() string {
	var b strings.Builder
	b.WriteString(t.State.String())
	b.WriteString("\n")
	t.renderChildren(&b, "")
	return b.String()
}

func (t *TreeNode) renderChildren(b *strings.Builder, prefix string) {
	for i, c := range t.Children {
		last := i == len(t.Children)-1
		connector, childPrefix := "├── ", prefix+"│   "
		if last {
			connector, childPrefix = "└── ", prefix+"    "
		}
		b.WriteString(prefix)
		b.WriteString(connector)
		if c.EdgeText != "" {
			fmt.Fprintf(b, "[%s] ", c.EdgeText)
		}
		b.WriteString(c.State.String())
		b.WriteString("\n")
		c.renderChildren(b, childPrefix)
	}
}

// Leaves returns the leaf states (completed or pruned paths) of the tree.
func (t *TreeNode) Leaves() []*State {
	if len(t.Children) == 0 {
		return []*State{t.State}
	}
	var out []*State
	for _, c := range t.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// CountNodes returns the number of tree nodes (states).
func (t *TreeNode) CountNodes() int {
	n := 1
	for _, c := range t.Children {
		n += c.CountNodes()
	}
	return n
}
