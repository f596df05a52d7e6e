package core

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

// Tests of the role handoff as message passing: a successor serves a node
// only once the node's job message has reached it, and holds what arrives
// for the node before that.

// roleTarget returns the node a role-addressed message is for.
func roleTarget(msg sim.Message) (int, bool) {
	switch pl := msg.Payload.(type) {
	case incWord:
		target, _ := sim.Unpair(msg.Word)
		return target, true
	case incPayload:
		return pl.Target, true
	case newIDPayload:
		return pl.Target, pl.Target != leafTarget
	case handoffParentPayload:
		return pl.Node, true
	case handoffChildPayload:
		return pl.Node, true
	}
	return 0, false
}

// jobWatch runs the tree's protocol and watches the handoff of one node to
// its successor: it counts the messages for the node that reach the
// successor before the job does, and fails the test if delivering one
// changes the node as the tree reports it or sends anything. With dup it
// delivers the job twice; the second delivery must change nothing either.
type jobWatch struct {
	t    *testing.T
	pr   *proto
	tr   *Tree // readouts of pr
	c    *counter.Sim
	node int
	succ sim.ProcID
	dup  bool

	landed bool
	early  int
}

func (w *jobWatch) Deliver(nw sim.Transport, msg sim.Message) {
	if msg.To != w.succ || w.landed {
		w.pr.Deliver(nw, msg)
		return
	}
	if job, ok := msg.Payload.(handoffJobPayload); ok && job.Node == w.node {
		w.landed = true
		w.pr.Deliver(nw, msg)
		if w.dup {
			w.unchanged("a duplicated job", func() { w.pr.Deliver(nw, msg) })
		}
		return
	}
	if target, ok := roleTarget(msg); ok && target == w.node {
		w.early++
		w.unchanged("a "+msg.Payload.Kind()+" message ahead of the job", func() { w.pr.Deliver(nw, msg) })
		return
	}
	w.pr.Deliver(nw, msg)
}

// unchanged runs deliver and fails the test if the watched node or the
// message count moved.
func (w *jobWatch) unchanged(what string, deliver func()) {
	w.t.Helper()
	before, sent := w.tr.Nodes()[w.node], w.c.MessagesTotal()
	deliver()
	if after := w.tr.Nodes()[w.node]; after != before || w.c.MessagesTotal() != sent {
		w.t.Errorf("%s at %v was served: node %d went %+v -> %+v, %d messages sent",
			what, w.succ, w.node, before, after, w.c.MessagesTotal()-sent)
	}
}

// handoffRun drives ten staggered operations on the k = 2 tree: the
// canonical first four (after which level-1 node 0 retires from processor
// 1 to 2, and the root from 1 to 2 as well), two more by processors 1 and
// 2 through node 0 again, and the right subtree's four. lat is the
// network's latency model; it returns the run's total messages and how many
// messages for node 0 reached processor 2 ahead of the node's job.
func handoffRun(t *testing.T, lat sim.Latency, dup bool) (msgs int64, early int) {
	t.Helper()
	pr := newProto(2, 8, &counterState{}, false)
	w := &jobWatch{t: t, pr: pr, tr: &Tree{proto: pr}, node: pr.g.nodeID(1, 0), succ: 2, dup: dup}
	m := pr.Machine()
	m.Proto = w
	c := counter.OnSim(m, sim.WithLatency(lat))
	w.c = c
	var done []sim.OpDone
	c.OnOpDone(func(d sim.OpDone) { done = append(done, d) })
	for i, p := range []sim.ProcID{1, 2, 3, 4, 1, 2, 5, 6, 7, 8} {
		c.Start(int64(10*i), p)
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 10 {
		t.Fatalf("%d of 10 operations completed", len(done))
	}
	vals := make([]verify.TimedValue, len(done))
	for i, d := range done {
		v, ok := c.OpValue(d.ID)
		if !ok {
			t.Fatalf("operation %d by %v has no value", d.ID, d.Initiator)
		}
		vals[i] = verify.TimedValue{Op: d.ID, Value: v, Start: d.Start, End: d.End}
	}
	if err := verify.Linearizable(vals); err != nil {
		t.Fatal(err)
	}
	if !w.landed {
		t.Fatalf("node %d's job never reached processor %v", w.node, w.succ)
	}
	return c.MessagesTotal(), w.early
}

// TestRoleWaitsForItsJob stalls the first handoff-job (level-1 node 0's,
// processor 1 to 2) for 40 ticks. Six messages for the node reach processor
// 2 first: the rest of the handoff (parent and two children), the root's
// new-id forwarded by processor 1, and the incs of the two operations that
// follow through node 0. Each must be held, not served, and served once
// the job lands, so values stay linearizable and the run sends exactly the
// messages of the unstalled one. With the job delivered twice, the second
// copy is a no-op.
func TestRoleWaitsForItsJob(t *testing.T) {
	want, early := handoffRun(t, sim.UnitLatency{}, false)
	if early != 0 {
		t.Fatalf("unstalled run: %d messages ahead of the job", early)
	}
	for _, dup := range []bool{false, true} {
		stall := sim.NewStallKindLatency(40, map[string][]int{"handoff-job": {0}})
		got, early := handoffRun(t, stall, dup)
		if got != want {
			t.Errorf("dup=%v: %d messages, want the unstalled run's %d", dup, got, want)
		}
		if early != 6 {
			t.Errorf("dup=%v: %d messages ahead of the job, want 6", dup, early)
		}
	}
}
