package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// ownerWatch runs the tree's protocol and, around every callback of
// processor p, checks that p wrote only cells it owns: its status slots p
// and n+p with their held lists, index p of the leaf and stats slices, and
// the table of a node p holds before or after the callback (the root's
// state with the root's). The node shapes may not change at all. Two parts
// are out of scope: ops, whose slots are confined by counter.Ops itself
// (TestOpsConcurrent), and the lemma checker, which NewMachine leaves off.
type ownerWatch struct {
	t      *testing.T
	pr     *proto
	checks int
}

func (w *ownerWatch) Deliver(nw sim.Transport, msg sim.Message) {
	w.around(msg.To, func() { w.pr.Deliver(nw, msg) })
}

func (w *ownerWatch) initiate(nw sim.Transport, p sim.ProcID) {
	w.around(p, func() { w.pr.initiate(nw, p) })
}

func (w *ownerWatch) around(p sim.ProcID, callback func()) {
	w.t.Helper()
	before := w.pr.CloneProtocol().(*proto)
	before.held = nil // a clone holds nothing: copy the held lists here
	for s, h := range w.pr.held {
		if len(h) > 0 {
			if before.held == nil {
				before.held = make([][]heldMsg, len(w.pr.held))
			}
			before.held[s] = slices.Clone(h)
		}
	}
	callback()
	w.checks++
	if err := ownedOnly(before, w.pr, p); err != nil {
		w.t.Fatalf("callback %d at %v: %v", w.checks, p, err)
	}
}

// ownedOnly compares two states of the protocol cell by cell and reports
// the first cell that changed although p does not own it.
func ownedOnly(a, b *proto, p sim.ProcID) error {
	n, k := a.g.n, a.g.k
	for s := range a.status {
		if s == int(p) || s == n+int(p) {
			continue
		}
		if a.status[s] != b.status[s] || !slices.Equal(heldAt(a, s), heldAt(b, s)) {
			return fmt.Errorf("status slot %d changed", s)
		}
	}
	for id := range a.nodes {
		if start := a.nodes[id].poolStart; p >= start && int(p-start) < a.nodes[id].poolSize {
			if s := a.slot(p, id); a.status[s] == holding || b.status[s] == holding {
				continue // p's table
			}
		}
		switch {
		case a.nodes[id] != b.nodes[id]:
			return fmt.Errorf("node %d's table changed: %+v -> %+v", id, a.nodes[id], b.nodes[id])
		case !slices.Equal(a.childProc[id*k:id*k+k], b.childProc[id*k:id*k+k]):
			return fmt.Errorf("node %d's children changed", id)
		case id == 0 && !reflect.DeepEqual(a.root, b.root):
			return fmt.Errorf("the root state changed")
		}
	}
	for q := range a.leafLoad {
		if sim.ProcID(q) == p {
			continue
		}
		switch {
		case a.leafParent[q] != b.leafParent[q], a.leafLoad[q] != b.leafLoad[q]:
			return fmt.Errorf("processor %d's leaf cells changed", q)
		case a.stats[q] != b.stats[q]:
			return fmt.Errorf("processor %d's stats changed", q)
		}
	}
	return nil
}

// heldAt is slot s's held list; a clone has no held table until it holds.
func heldAt(pr *proto, s int) []heldMsg {
	if pr.held == nil {
		return nil
	}
	return pr.held[s]
}

// ownershipRun runs n processors' operations on the watched tree, one per
// processor at starts[p-1], under the given network options.
func ownershipRun(t *testing.T, n int, starts func(p int) int64, opts ...sim.Option) {
	t.Helper()
	pr := newProto(KForSize(n), 4*KForSize(n), &counterState{}, false)
	w := &ownerWatch{t: t, pr: pr}
	m := pr.Machine()
	m.Proto, m.Initiate = w, w.initiate
	c := counter.OnSim(m, opts...)
	for p := 1; p <= m.N; p++ {
		c.Start(starts(p), sim.ProcID(p))
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	if st := pr.totals(); st.Retirements == 0 || w.checks == 0 {
		t.Fatalf("nothing to check: %d callbacks, %+v", w.checks, st)
	}
}

// TestHandlersWriteOnlyTheirOwnState holds the tree to the message-passing
// model: in the canonical order (one operation at a time) and in a
// concurrent run under reordering latencies, at n = 8 and n = 81, no
// callback of processor p writes another processor's state. This is what
// lets the rt backend run the tree's receivers concurrently without a lock.
func TestHandlersWriteOnlyTheirOwnState(t *testing.T) {
	for _, n := range []int{8, 81} {
		t.Run(fmt.Sprintf("canonical/n%d", n), func(t *testing.T) {
			ownershipRun(t, n, func(p int) int64 { return int64(100 * p) })
		})
		t.Run(fmt.Sprintf("reordered/n%d", n), func(t *testing.T) {
			ownershipRun(t, n, func(p int) int64 { return int64(p / 2) },
				sim.WithSeed(3), sim.WithLatency(sim.UniformLatency{Min: 1, Max: 11}))
		})
	}
}
