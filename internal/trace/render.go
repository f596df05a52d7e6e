package trace

import (
	"fmt"
	"strings"
)

// DOT renders the DAG in Graphviz dot format; nodes are labelled with
// processor ids, the source node is drawn with a double circle. This
// regenerates Figure 1 of the paper for any traced operation.
func (d *DAG) DOT() string {
	var b strings.Builder
	b.WriteString("digraph inc {\n")
	b.WriteString("  rankdir=LR;\n")
	fmt.Fprintf(&b, "  n0 [label=\"%d\", shape=doublecircle];\n", d.Nodes[0].Proc)
	for i, n := range d.Nodes[1:] {
		fmt.Fprintf(&b, "  n%d [label=\"%d\", shape=circle];\n", i+1, n.Proc)
	}
	for i, n := range d.Nodes[1:] {
		fmt.Fprintf(&b, "  n%d -> n%d;\n", n.Parent, i+1)
	}
	b.WriteString("}\n")
	return b.String()
}

// ASCII renders the DAG as an indented tree rooted at the source node,
// one line per communication event:
//
//	7            <- initiator
//	+- 3         <- message 7 -> 3
//	|  +- 11     <- message 3 -> 11
//	+- 11
//
// Because every node has exactly one incoming arc (the message that created
// it), the DAG is a tree over events and can be drawn without crossings.
func (d *DAG) ASCII() string {
	children := make([][]int, len(d.Nodes))
	for i, n := range d.Nodes[1:] {
		children[n.Parent] = append(children[n.Parent], i+1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", d.Nodes[0].Proc)
	var walk func(node int, prefix string)
	walk = func(node int, prefix string) {
		kids := children[node]
		for i, c := range kids {
			connector, childPrefix := "+- ", "|  "
			if i == len(kids)-1 {
				connector, childPrefix = "+- ", "   "
			}
			fmt.Fprintf(&b, "%s%s%d\n", prefix, connector, d.Nodes[c].Proc)
			walk(c, prefix+childPrefix)
		}
	}
	walk(0, "")
	return b.String()
}

// ListASCII renders the communication list as boxes, echoing Figure 2:
//
//	[3] -> [11] -> [17] -> [7]
func (d *DAG) ListASCII() string {
	list := d.CommunicationList()
	parts := make([]string, len(list))
	for i, p := range list {
		parts[i] = fmt.Sprintf("[%d]", p)
	}
	return strings.Join(parts, " -> ")
}
