package core

import (
	"strings"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// retiredNode builds a k = 3 tree without instrumentation and retires inner
// node (1, 1) once, running the handoff to quiescence. Its pool is 10..18
// and no other role starts on processor 10 or 11, so the loads of those two
// processors are the node's alone.
func retiredNode(t *testing.T) (*sim.Network, *proto, int) {
	t.Helper()
	pr := newProto(3, 12, &counterState{}, false)
	net := sim.New(pr.g.n, pr)
	id := pr.g.nodeID(1, 1)
	if cur, start := pr.holder(id), pr.nodes[id].poolStart; start != 10 || cur != 10 {
		t.Fatalf("node (1,1) starts at %v with pool start %v, want 10 and 10", cur, start)
	}
	net.StartOp(10, func(nw sim.Transport, _ sim.ProcID) { pr.retire(nw, 10, pr.slot(10, id), id) })
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if cur, st := pr.holder(id), pr.status[pr.slot(11, id)]; cur != 11 || st != holding {
		t.Fatalf("after one retirement node (1,1) is at %v, and processor 11's status is %d", cur, st)
	}
	return net, pr, id
}

// TestForwardOneHop: a message addressed through a stale neighbor table to
// a node's retired processor p goes one hop to p+1, which now serves the
// node, and is counted as forwarded.
func TestForwardOneHop(t *testing.T) {
	net, pr, id := retiredNode(t)
	// The child on the path of leaf 28 still believes its parent is at 10.
	child := pr.g.childNode(1, 1, 0)
	pr.nodes[child].parentProc = 10
	sent10, recv10, recv11 := net.Sent()[10], net.Recv()[10], net.Recv()[11]

	op := net.StartOp(28, pr.initiate)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got := pr.totals().Forwarded; got != 1 {
		t.Fatalf("Stats.Forwarded = %d, want 1", got)
	}
	if d := [3]int64{net.Sent()[10] - sent10, net.Recv()[10] - recv10, net.Recv()[11] - recv11}; d != [3]int64{1, 1, 1} {
		t.Fatalf("sent by 10, received by 10 and by 11 = %v, want one each", d)
	}
	if v, ok := pr.ops.Take(op); !ok || v != 0 {
		t.Fatalf("forwarded operation's value = (%v,%v), want (0,true)", v, ok)
	}
	if cur := pr.holder(id); cur != 11 {
		t.Fatalf("node moved on to %v", cur)
	}
}

// TestNeverServedPanics: a message for a node reaching a processor outside
// the node's pool — before it or past it — is a protocol bug, not a stale
// address, and panics. (One reaching a pool member the role has not reached
// yet is held for its job: TestRoleWaitsForItsJob.)
func TestNeverServedPanics(t *testing.T) {
	for _, to := range []sim.ProcID{9, 19} {
		net, pr, id := retiredNode(t)
		var got any
		func() {
			defer func() { got = recover() }()
			net.StartOp(28, func(nw sim.Transport, p sim.ProcID) {
				nw.Send(to, incPayload{Target: id, Origin: p})
			})
			_ = net.Run()
		}()
		if msg, _ := got.(string); !strings.Contains(msg, "never serves") {
			t.Fatalf("message to %v for node %d: recovered %v, want a never-served panic", to, id, got)
		}
		if pr.totals().Forwarded != 0 {
			t.Fatalf("message to %v was forwarded", to)
		}
	}
}

// TestCloneAllocsFlat: cloning the protocol costs the same number of
// allocations whatever the tree's size or the retirements behind it — with
// the lemma instrumentation off (NewMachine) and on (New).
func TestCloneAllocsFlat(t *testing.T) {
	allocs := func(n int, checks bool) float64 {
		var pr *proto
		if checks {
			c := NewForSize(n)
			for p := 1; p <= c.N()/2; p++ {
				if _, err := c.Inc(sim.ProcID(p)); err != nil {
					t.Fatal(err)
				}
			}
			pr = c.proto
		} else {
			m := NewMachine(n)
			s := counter.OnSim(m)
			for p := 1; p <= m.N/2; p++ {
				if _, err := s.Inc(sim.ProcID(p)); err != nil {
					t.Fatal(err)
				}
			}
			pr = m.Proto.(*proto)
		}
		if pr.totals().Retirements == 0 {
			t.Fatalf("n=%d: no retirements before the clone", n)
		}
		return testing.AllocsPerRun(20, func() { pr.CloneProtocol() })
	}
	for _, checks := range []bool{false, true} {
		small, large := allocs(81, checks), allocs(1024, checks)
		if small != large {
			t.Errorf("checks=%v: CloneProtocol allocates %v at n=81 and %v at n=1024", checks, small, large)
		}
	}
}
