package experiments

import (
	"fmt"
	"strings"

	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/trace"
)

// E1 reproduces Figures 1 and 2: the communication DAG of a single inc
// operation and its topologically sorted linearization (the communication
// list). The operation is taken from a real execution of the paper's tree
// counter (k = 2), warmed up until an operation with a retirement cascade
// occurs so the DAG shows more than a bare leaf-to-root path.
func E1(Config) (string, error) {
	c := core.New(2)
	var rec trace.Recorder
	c.Net().OnDeliver(rec.Record)
	res, err := counter.RunSequence(c, counter.SequentialOrder(c.N()))
	if err != nil {
		return "", err
	}

	// Pick the operation with the largest DAG (a retirement cascade).
	bestIdx := 0
	d := rec.DAG(res.OpIDs[0])
	for i, id := range res.OpIDs {
		if di := rec.DAG(id); di.Messages() > d.Messages() {
			bestIdx, d = i, di
		}
	}
	if err := d.Validate(); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "operation: inc initiated by processor %d (op %d of the canonical workload, k=2, n=%d)\n\n",
		d.Initiator, bestIdx+1, c.N())
	fmt.Fprintf(&b, "Figure 1 — communication DAG (%d messages):\n%s\n", d.Messages(), d.ASCII())
	fmt.Fprintf(&b, "as Graphviz:\n%s\n", d.DOT())
	fmt.Fprintf(&b, "Figure 2 — topologically sorted communication list (length %d arcs):\n%s\n",
		d.ListLength(), d.ListASCII())
	fmt.Fprintf(&b, "\nparticipants I_p = %v\n", d.Participants())
	return b.String(), nil
}
