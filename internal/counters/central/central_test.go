package central

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

func TestHolderIsBottleneck(t *testing.T) {
	// The paper's motivating example: over the canonical workload the holder
	// exchanges 2(n-1) messages while everyone else exchanges 2.
	const n = 64
	c := counter.OnSim(NewMachine(n))
	if _, err := counter.RunSequence(c, counter.SequentialOrder(n)); err != nil {
		t.Fatal(err)
	}
	s := loadstat.Summarize(c.Net().Sent(), c.Net().Recv())
	if s.Bottleneck != 1 {
		t.Fatalf("bottleneck = p%d, want the holder p1", s.Bottleneck)
	}
	if want := int64(2 * (n - 1)); s.MaxLoad != want {
		t.Fatalf("holder load = %d, want %d", s.MaxLoad, want)
	}
	for p := 2; p <= n; p++ {
		if got := c.Net().Load(sim.ProcID(p)); got != 2 {
			t.Fatalf("load(p%d) = %d, want 2", p, got)
		}
	}
}

func TestTwoMessagesPerRemoteOp(t *testing.T) {
	c := counter.OnSim(NewMachine(8))
	if _, err := c.Inc(5); err != nil {
		t.Fatal(err)
	}
	if got := c.Net().MessagesTotal(); got != 2 {
		t.Fatalf("remote inc used %d messages, want 2", got)
	}
}

func TestHolderIncIsFree(t *testing.T) {
	c := counter.OnSim(NewMachine(8))
	v, err := c.Inc(holder)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("holder inc returned %d, want 0", v)
	}
	if got := c.Net().MessagesTotal(); got != 0 {
		t.Fatalf("holder inc used %d messages, want 0", got)
	}
}

func TestName(t *testing.T) {
	if NewMachine(2).Name != "central" {
		t.Fatal("wrong name")
	}
}
