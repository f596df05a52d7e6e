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
	if err := HotSpot(c.Net(), res); err != nil {
		t.Fatal(err)
	}
}

func TestHotSpotNeedsOpTracking(t *testing.T) {
	c := counter.OnSim(central.NewMachine(4))
	res, err := counter.RunSequence(c, counter.SequentialOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	c.Net().ForgetOp(res.OpIDs[1])
	if err := HotSpot(c.Net(), res); err == nil {
		t.Fatal("HotSpot passed without op stats")
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
}

func (bp *brokenProto) Deliver(sim.Transport, sim.Message) {}

func (bp *brokenProto) initiate(_ sim.Transport, p sim.ProcID) {
	bp.shard[p]++
}

type brokenCounter struct {
	net   *sim.Network
	proto *brokenProto
}

func newBroken(n int) *brokenCounter {
	pr := &brokenProto{shard: make([]int, n+1)}
	return &brokenCounter{net: sim.New(n, pr), proto: pr}
}

func (c *brokenCounter) Name() string      { return "broken-sharded" }
func (c *brokenCounter) N() int            { return c.net.N() }
func (c *brokenCounter) Net() *sim.Network { return c.net }

func (c *brokenCounter) Inc(p sim.ProcID) (int, error) {
	c.net.StartOp(p, c.proto.initiate)
	if err := c.net.Run(); err != nil {
		return 0, err
	}
	return c.proto.shard[p] - 1, nil
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
	if err := HotSpot(c.Net(), res); err == nil {
		t.Fatal("HotSpot accepted operations with disjoint participant sets")
	}
}
