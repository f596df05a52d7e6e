// Package trace captures the communication structure of a single counter
// operation as a directed acyclic graph, exactly as in Section 2 of
// Wattenhofer & Widmayer, "An Inherent Bottleneck in Distributed Counting".
//
// A node of the DAG represents a processor performing some communication;
// an arc from a node labelled p1 to a node labelled p2 denotes a message
// from processor p1 to processor p2 (paper, Figure 1). The initiating
// processor appears as the source of the DAG. The same processor may label
// several nodes.
//
// The paper linearizes the DAG into a topologically sorted "communication
// list" (Figure 2) whose arc count lower-bounds per-processor message counts;
// the lower-bound adversary ranks candidate operations by the length of this
// list. Package trace provides both representations plus ASCII and Graphviz
// renderings, and a Recorder that builds the DAGs from the node records
// either execution backend reports (sim.Delivery).
package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"distcount/internal/sim"
)

// Node is a single communication event of one processor.
type Node struct {
	// Proc is the processor label of the node.
	Proc int
	// Parent is the index of the node whose processing caused this node
	// (the sender of the message that created it), or -1 for the source.
	Parent int
}

// DAG is the communication DAG of one operation. Every node but the source
// has exactly one incoming arc, from its Parent: the message that created it.
//
// Nodes are stored in creation order, which is a valid topological order by
// construction: an arc can only point from an existing node to a newly
// created one (a message is sent strictly before it is received).
type DAG struct {
	// Initiator is the processor that started the operation.
	Initiator int
	Nodes     []Node
}

// NewDAG returns a DAG containing only the source node for the initiator.
func NewDAG(initiator int) *DAG {
	return &DAG{
		Initiator: initiator,
		Nodes:     []Node{{Proc: initiator, Parent: -1}},
	}
}

// AddEvent appends a communication event for proc caused by the node at
// index parent (the sender) and returns the new node's index.
func (d *DAG) AddEvent(proc, parent int) int {
	if parent < 0 || parent >= len(d.Nodes) {
		panic(fmt.Sprintf("trace: AddEvent parent %d out of range [0,%d)", parent, len(d.Nodes)))
	}
	d.Nodes = append(d.Nodes, Node{Proc: proc, Parent: parent})
	return len(d.Nodes) - 1
}

// Messages returns the number of messages in the operation (= arcs): every
// node but the source was created by one.
func (d *DAG) Messages() int { return d.ListLength() }

// Participants returns the sorted set of processors that send or receive a
// message during the operation: the set I_p of the paper. A node that never
// communicates (a source with no outgoing arcs) still counts as the
// initiator is always involved in its own operation.
func (d *DAG) Participants() []int {
	seen := make(map[int]struct{}, len(d.Nodes))
	for _, n := range d.Nodes {
		seen[n.Proc] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// CommunicationList returns the processor labels of the DAG nodes in
// creation order, which is topological: the paper's linearized
// "communication list" (Figure 2). Each arc of the DAG corresponds to a path
// in this list, and each adjacent pair in the list is one message of the
// modelled execution.
func (d *DAG) CommunicationList() []int {
	list := make([]int, len(d.Nodes))
	for i, n := range d.Nodes {
		list[i] = n.Proc
	}
	return list
}

// ListLength is the length of the communication list measured as the number
// of arcs in the list (paper: "the length is measured as the number of arcs
// in the list"). It equals the number of messages of the operation, because
// every delivery appends exactly one node.
func (d *DAG) ListLength() int {
	if len(d.Nodes) == 0 {
		return 0
	}
	return len(d.Nodes) - 1
}

// Validate checks structural invariants: the source is node 0 and belongs to
// the initiator, and every other node's parent is an earlier node (its arc
// goes forward in creation order, so the graph is acyclic). It returns nil
// if the DAG is well formed.
func (d *DAG) Validate() error {
	if len(d.Nodes) == 0 {
		return fmt.Errorf("trace: DAG has no nodes")
	}
	if d.Nodes[0].Parent != -1 {
		return fmt.Errorf("trace: node 0 must be the source (parent -1), got parent %d", d.Nodes[0].Parent)
	}
	if d.Nodes[0].Proc != d.Initiator {
		return fmt.Errorf("trace: source node proc %d != initiator %d", d.Nodes[0].Proc, d.Initiator)
	}
	for i, n := range d.Nodes[1:] {
		idx := i + 1
		if n.Parent < 0 || n.Parent >= idx {
			return fmt.Errorf("trace: node %d has parent %d, want in [0,%d)", idx, n.Parent, idx)
		}
	}
	return nil
}

// String renders the communication list compactly, e.g. "3 -> 11 -> 17".
func (d *DAG) String() string {
	list := d.CommunicationList()
	parts := make([]string, len(list))
	for i, p := range list {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return strings.Join(parts, " -> ")
}

// Recorder builds communication DAGs from the records a backend reports to
// its OnDeliver hook (install Record as the hook, on sim or rt). The zero
// value is ready to use; it is safe for concurrent use, as rt's workers
// report concurrently.
type Recorder struct {
	mu  sync.Mutex
	ops map[sim.OpID][]sim.Delivery
}

// Record stores one node record; it is the OnDeliver hook.
func (r *Recorder) Record(d sim.Delivery) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ops == nil {
		r.ops = make(map[sim.OpID][]sim.Delivery)
	}
	r.ops[d.Op] = append(r.ops[d.Op], d)
}

// DAG builds operation op's communication DAG from its records so far, or
// returns nil when there are none (it started before the hook was
// installed). rt may report one operation's concurrent deliveries out of
// node order, so the records are sorted first; a gap or repeat in the node
// numbering is a backend bug and panics.
func (r *Recorder) DAG(op sim.OpID) *DAG {
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := r.ops[op]
	if len(recs) == 0 {
		return nil
	}
	slices.SortFunc(recs, func(a, b sim.Delivery) int { return a.Node - b.Node })
	d := NewDAG(int(recs[0].Proc))
	for i, rec := range recs[1:] {
		if rec.Node != i+1 {
			panic(fmt.Sprintf("trace: op %d: node %d recorded at position %d", op, rec.Node, i+1))
		}
		d.AddEvent(int(rec.Proc), rec.Parent)
	}
	return d
}
