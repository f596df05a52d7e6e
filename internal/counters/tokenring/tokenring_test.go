package tokenring

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counter/countertest"
	"distcount/internal/loadstat"
	"distcount/internal/sim"
)

func factory(n int) counter.Counter {
	return counter.OnSim(NewMachine(n), sim.WithTracing())
}

func TestConformance(t *testing.T) {
	countertest.Conformance(t, factory, 1, 2, 8, 33)
}

func TestCloneIndependence(t *testing.T) {
	countertest.CloneIndependence(t, factory, 16)
}

func TestTokenMoves(t *testing.T) {
	pr := newProto(8)
	c := counter.OnSim(pr.Machine())
	if _, err := c.Inc(5); err != nil {
		t.Fatal(err)
	}
	if pr.holder != 5 {
		t.Fatalf("holder = %v, want 5", pr.holder)
	}
	// Request 1 msg + hops 1->2->3->4->5 = 4 token messages.
	if got := c.Net().MessagesTotal(); got != 5 {
		t.Fatalf("messages = %d, want 5", got)
	}
}

func TestSelfIncIsFree(t *testing.T) {
	c := counter.OnSim(NewMachine(8))
	if v, err := c.Inc(1); err != nil || v != 0 {
		t.Fatalf("Inc(1) = %d, %v", v, err)
	}
	if got := c.Net().MessagesTotal(); got != 0 {
		t.Fatalf("self inc used %d messages", got)
	}
}

func TestRingWrapAround(t *testing.T) {
	pr := newProto(4)
	c := counter.OnSim(pr.Machine())
	if _, err := c.Inc(3); err != nil { // token 1 -> 2 -> 3
		t.Fatal(err)
	}
	if _, err := c.Inc(2); err != nil { // token 3 -> 4 -> 1 -> 2 (wraps)
		t.Fatal(err)
	}
	if pr.holder != 2 {
		t.Fatalf("holder = %v, want 2", pr.holder)
	}
}

// TestLoadSpreadButHigh demonstrates the package-level claim: loads are more
// evenly spread than the centralized counter, yet the bottleneck load is
// still Θ(n) over the canonical workload.
func TestLoadSpreadButHigh(t *testing.T) {
	const n = 32
	c := counter.OnSim(NewMachine(n))
	if _, err := counter.RunSequence(c, counter.RandomOrder(n, 1)); err != nil {
		t.Fatal(err)
	}
	s := loadstat.Summarize(c.Net().Sent(), c.Net().Recv())
	if s.MaxLoad < int64(n)/2 {
		t.Fatalf("bottleneck load %d unexpectedly below n/2 = %d", s.MaxLoad, n/2)
	}
}

func TestName(t *testing.T) {
	if NewMachine(2).Name != "tokenring" {
		t.Fatal("wrong name")
	}
}
