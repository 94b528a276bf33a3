package cfg

import (
	"fmt"
	"sort"
	"strings"
)

// DotOptions controls Graphviz rendering.
type DotOptions struct {
	// Highlight maps node IDs to a fill color name, used to visualize
	// affected/changed nodes as in Fig. 2(b) of the paper.
	Highlight map[int]string
	// Title is an optional graph label.
	Title string
}

// Dot renders the CFG in Graphviz DOT format. Node shapes follow the paper's
// Fig. 2(b): diamonds for conditional branches, boxes for writes, ovals for
// begin/end.
func (g *Graph) Dot(opts DotOptions) string {
	var b strings.Builder
	b.WriteString("digraph cfg {\n")
	if opts.Title != "" {
		fmt.Fprintf(&b, "  label=%q;\n  labelloc=t;\n", opts.Title)
	}
	b.WriteString("  node [fontname=\"Helvetica\"];\n")
	for _, n := range g.Nodes {
		shape := "box"
		label := fmt.Sprintf("n%d", n.ID)
		switch n.Kind {
		case KindBegin:
			shape, label = "oval", "begin"
		case KindEnd:
			shape, label = "oval", "end"
		case KindError:
			shape, label = "octagon", "assert-fail"
		case KindCond:
			shape = "diamond"
			label = fmt.Sprintf("n%d\\n%d: %s", n.ID, n.Line, escapeDot(n.Text()))
		default:
			label = fmt.Sprintf("n%d\\n%d: %s", n.ID, n.Line, escapeDot(n.Text()))
		}
		attrs := fmt.Sprintf("shape=%s, label=\"%s\"", shape, label)
		if color, ok := opts.Highlight[n.ID]; ok {
			attrs += fmt.Sprintf(", style=filled, fillcolor=%q", color)
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", n.ID, attrs)
	}
	// Deterministic edge order: by from-ID then label then to-ID.
	var edges []Edge
	for _, n := range g.Nodes {
		edges = append(edges, n.Succs...)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From.ID != edges[j].From.ID {
			return edges[i].From.ID < edges[j].From.ID
		}
		if edges[i].Label != edges[j].Label {
			return edges[i].Label < edges[j].Label
		}
		return edges[i].To.ID < edges[j].To.ID
	})
	for _, e := range edges {
		if lbl := e.Label.String(); lbl != "" {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", e.From.ID, e.To.ID, lbl)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From.ID, e.To.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func escapeDot(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}
