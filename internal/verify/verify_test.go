package verify

import (
	"strings"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counters/central"
	"distcount/internal/sim"
)

func TestSequentialAccepts(t *testing.T) {
	res := &counter.RunResult{
		Order:  []sim.ProcID{3, 1, 2},
		Values: []int{0, 1, 2},
	}
	if err := Sequential(res); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialRejects(t *testing.T) {
	res := &counter.RunResult{
		Order:  []sim.ProcID{3, 1},
		Values: []int{0, 2},
	}
	err := Sequential(res)
	if err == nil {
		t.Fatal("accepted wrong value")
	}
	if !strings.Contains(err.Error(), "returned 2, want 1") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestBijectionAccepts(t *testing.T) {
	res := &counter.RunResult{Values: []int{2, 0, 1}}
	if err := Bijection(res); err != nil {
		t.Fatal(err)
	}
}

func TestBijectionRejectsDuplicate(t *testing.T) {
	res := &counter.RunResult{Values: []int{0, 1, 1}}
	if err := Bijection(res); err == nil {
		t.Fatal("accepted duplicate value")
	}
}

func TestBijectionRejectsOutOfRange(t *testing.T) {
	res := &counter.RunResult{Values: []int{0, 5}}
	if err := Bijection(res); err == nil {
		t.Fatal("accepted out-of-range value")
	}
	res2 := &counter.RunResult{Values: []int{-1, 0}}
	if err := Bijection(res2); err == nil {
		t.Fatal("accepted negative value")
	}
}

func TestHotSpotOnRealRun(t *testing.T) {
	c := counter.OnSim(central.NewMachine(6))
	res, err := counter.RunSequence(c, counter.SequentialOrder(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := HotSpot(res); err != nil {
		t.Fatal(err)
	}
}

// TestHotSpotNeedsOpTracking: a result that does not carry one participant
// intersection per consecutive pair — built by hand, not by RunSequence —
// fails the check instead of passing vacuously.
func TestHotSpotNeedsOpTracking(t *testing.T) {
	c := counter.OnSim(central.NewMachine(4))
	res, err := counter.RunSequence(c, counter.SequentialOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	res.Shared = res.Shared[:1]
	if err := HotSpot(res); err == nil {
		t.Fatal("HotSpot passed with intersections missing")
	}
}

func TestCounterOneCall(t *testing.T) {
	c := counter.OnSim(central.NewMachine(5))
	if err := Counter(c, counter.ReverseOrder(5)); err != nil {
		t.Fatal(err)
	}
}

// brokenProto is a deliberately incorrect counter: every processor keeps a
// private shard and increments locally, exchanging no messages. Returned
// values collide, and participant sets of distinct initiators are disjoint
// — both checkers must catch it.
type brokenProto struct {
	shard []int
	ops   *counter.Ops[struct{}, int]
}

func (bp *brokenProto) Deliver(sim.Transport, sim.Message) {}

func newBroken(n int) *counter.Sim {
	bp := &brokenProto{shard: make([]int, n+1), ops: counter.NewOps[struct{}, int](n)}
	return counter.OnSim(counter.Machine{
		Name:  "broken-sharded",
		N:     n,
		Proto: bp,
		Initiate: func(nw sim.Transport, p sim.ProcID) {
			bp.ops.Begin(nw, p)
			bp.ops.Finish(nw, p, bp.shard[p])
			bp.shard[p]++
		},
		Value: bp.ops.Take,
	})
}

// TestBrokenCounterCaught: a sharded no-coordination counter violates both
// sequential semantics and the Hot Spot Lemma; the verifiers must reject
// it. This is the negative path that proves the checkers have teeth.
func TestBrokenCounterCaught(t *testing.T) {
	c := newBroken(6)
	res, err := counter.RunSequence(c, counter.SequentialOrder(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := Sequential(res); err == nil {
		t.Fatal("Sequential accepted a sharded counter (all ops returned 0)")
	}
	if err := HotSpot(res); err == nil {
		t.Fatal("HotSpot accepted operations with disjoint participant sets")
	}
}
