package tokenring

import (
	"reflect"
	"slices"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counter/countertest"
	"distcount/internal/loadstat"
	"distcount/internal/sim"
)

func factory(n int) counter.Counter {
	return counter.OnSim(NewMachine(n))
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
	if _, h := pr.holder(); h != 5 {
		t.Fatalf("holder = %v, want 5", h)
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
	if _, h := pr.holder(); h != 2 {
		t.Fatalf("holder = %v, want 2", h)
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

// TestOnlyTheOracleIsShared holds the ring to the message-passing model
// with its one labelled exception. proto's fields are the immutable ring
// size, the per-initiator ops slots (confined by counter.Ops itself) and
// the oracle word; a field added to it fails here until its owner is
// argued. Around every callback of a concurrent run, the size stays put and
// the oracle changes only in a callback of the processor it names as the
// holder afterwards: only the token's holder writes it.
func TestOnlyTheOracleIsShared(t *testing.T) {
	typ := reflect.TypeOf(proto{})
	var fields []string
	for i := range typ.NumField() {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"n", "oracle", "ops"}; !slices.Equal(fields, want) {
		t.Fatalf("proto's fields are %v, want %v", fields, want)
	}

	pr := newProto(16)
	callbacks := 0
	around := func(p sim.ProcID, callback func()) {
		n, before := pr.n, pr.oracle.Load()
		callback()
		callbacks++
		if pr.n != n {
			t.Fatalf("callback at %v changed the ring size", p)
		}
		if after := pr.oracle.Load(); after != before {
			if _, h := pr.holder(); h != p {
				t.Fatalf("callback at %v moved the oracle to holder %v", p, h)
			}
		}
	}
	m := pr.Machine()
	m.Proto = protoFunc(func(nw sim.Transport, msg sim.Message) {
		around(msg.To, func() { pr.Deliver(nw, msg) })
	})
	m.Initiate = func(nw sim.Transport, p sim.ProcID) {
		around(p, func() { pr.initiate(nw, p) })
	}
	c := counter.OnSim(m, sim.WithSeed(3), sim.WithLatency(sim.UniformLatency{Min: 1, Max: 11}))
	for round := range 3 {
		for p := 1; p <= m.N; p++ {
			c.Start(int64(1000*round+p/2), sim.ProcID(p))
		}
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	if callbacks < 3*m.N {
		t.Fatalf("only %d callbacks checked", callbacks)
	}
}

type protoFunc func(nw sim.Transport, msg sim.Message)

func (f protoFunc) Deliver(nw sim.Transport, msg sim.Message) { f(nw, msg) }
