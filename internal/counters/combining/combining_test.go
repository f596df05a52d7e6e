package combining

import (
	"math/bits"
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

// burst starts one operation per processor at starts[p-1], runs the
// network to quiescence and returns each operation's value, failing the
// test on a missing one.
func burst(t *testing.T, c *counter.Sim, starts []int64) []int {
	t.Helper()
	ids := make([]sim.OpID, len(starts))
	for i, at := range starts {
		ids[i] = c.Start(at, sim.ProcID(i+1))
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	values := make([]int, len(ids))
	for i, id := range ids {
		v, ok := c.OpValue(id)
		if !ok {
			t.Fatalf("processor %d got no value", i+1)
		}
		values[i] = v
	}
	return values
}

// distinct fails the test unless values are exactly 0..len(values)-1.
func distinct(t *testing.T, values []int) {
	t.Helper()
	seen := make([]bool, len(values))
	for i, v := range values {
		if v < 0 || v >= len(values) || seen[v] {
			t.Fatalf("processor %d got invalid/duplicate value %d", i+1, v)
		}
		seen[v] = true
	}
}

func TestConformance(t *testing.T) {
	countertest.Conformance(t, factory, 1, 2, 3, 8, 33)
}

func TestCloneIndependence(t *testing.T) {
	countertest.CloneIndependence(t, factory, 16)
}

func TestSequentialNeverCombines(t *testing.T) {
	m := NewMachine(16)
	if _, err := counter.RunSequence(counter.OnSim(m), counter.SequentialOrder(16)); err != nil {
		t.Fatal(err)
	}
	if Combined(m) != 0 {
		t.Fatalf("sequential run combined %d requests", Combined(m))
	}
}

func TestRootHostIsSequentialBottleneck(t *testing.T) {
	const n = 32
	m := NewMachine(n)
	c := counter.OnSim(m)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(n)); err != nil {
		t.Fatal(err)
	}
	s := loadstat.SummarizeLoads(c.Net().Loads())
	if s.Bottleneck != int(RootHost(m)) {
		t.Fatalf("bottleneck = p%d, want root host p%d", s.Bottleneck, RootHost(m))
	}
	// The root host sees >= 2 messages per operation it does not initiate.
	if s.MaxLoad < int64(2*(n-2)) {
		t.Fatalf("root host load = %d, want >= %d", s.MaxLoad, 2*(n-2))
	}
}

func TestConcurrentCombining(t *testing.T) {
	// All processors fire at t=0 with a combining window: requests must
	// merge, and every processor still gets a distinct value.
	const n = 16
	m := NewMachine(n, WithWindow(8))
	values := burst(t, counter.OnSim(m), make([]int64, n))
	if Combined(m) == 0 {
		t.Fatal("no combining despite simultaneous requests and open window")
	}
	distinct(t, values)
}

func TestConcurrentCombiningCutsRootTraffic(t *testing.T) {
	const n = 32
	run := func(window int64) int64 {
		m := NewMachine(n, WithWindow(window))
		c := counter.OnSim(m)
		burst(t, c, make([]int64, n))
		return c.Net().Load(RootHost(m))
	}
	without := run(0)
	with := run(16)
	if with >= without {
		t.Fatalf("combining did not cut root-host load: %d vs %d", with, without)
	}
}

// TestPipelinedBatches: a second combining window can open at a node while
// the first batch is still awaiting the root's response; batch ids keep the
// responses straight and every operation gets a distinct value.
func TestPipelinedBatches(t *testing.T) {
	const n = 16
	m := NewMachine(n, WithWindow(2))
	// Wave 1 at t=0, wave 2 well after wave 1's windows closed but (at
	// depth 4 with unit latency) before its responses returned.
	starts := make([]int64, n)
	for p := 9; p <= n; p++ {
		starts[p-1] = 5
	}
	distinct(t, burst(t, counter.OnSim(m), starts))
	if Combined(m) == 0 {
		t.Fatal("waves did not combine at all")
	}
}

func TestWindowTimerExpiresAlone(t *testing.T) {
	// A single request with a window must still complete (via the timer).
	c := counter.OnSim(NewMachine(8, WithWindow(5)))
	v, err := c.Inc(3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("value = %d, want 0", v)
	}
}

func TestSingleProcessorLocal(t *testing.T) {
	c := counter.OnSim(NewMachine(1))
	for i := 0; i < 3; i++ {
		v, err := c.Inc(1)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("value = %d, want %d", v, i)
		}
	}
	if c.Net().MessagesTotal() != 0 {
		t.Fatalf("n=1 used %d messages", c.Net().MessagesTotal())
	}
}

// TestChainPositions: the inner nodes hosted at a processor are numbered
// consecutively from its first, so a node's position in its host's chain
// names it, and that position stays below ⌈log₂ n⌉, far inside a byte.
func TestChainPositions(t *testing.T) {
	for n := 2; n <= 300; n++ {
		pr := newProto(n, 0)
		for node, nd := range pr.nodes {
			first := pr.top[nd.host]
			for j := first; j <= node; j++ {
				if pr.nodes[j].host != nd.host {
					t.Fatalf("n=%d: node %d hosted at %v, but node %d between it and its chain's first %d is at %v",
						n, node, nd.host, j, first, pr.nodes[j].host)
				}
			}
			if pos := int(pr.pos(node)); pos != node-first || pos >= bits.Len(uint(n-1)) {
				t.Fatalf("n=%d: node %d at position %d of %v's chain, want %d below %d",
					n, node, pos, nd.host, node-first, bits.Len(uint(n-1)))
			}
		}
	}
}

func TestNegativeWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WithWindow(-1)
}

func TestName(t *testing.T) {
	if NewMachine(2).Name != "combining" {
		t.Fatal("wrong name")
	}
}

// staleWatch runs the combining protocol and counts the response copies
// that land at a node while a newer batch of that node is in flight: the
// copies a reused batch id would apply to the wrong batch.
type staleWatch struct {
	*proto
	stale int
}

func (w *staleWatch) Deliver(nw sim.Transport, msg sim.Message) {
	if pos, ok := msg.Payload.(respTo); ok {
		_, id := sim.Unpair(msg.Word)
		nd := &w.nodes[w.top[msg.To]+int(pos)]
		if !slices.ContainsFunc(nd.inFlight, func(f flight) bool { return f.id == id }) &&
			slices.ContainsFunc(nd.inFlight, func(f flight) bool { return f.id > id }) {
			w.stale++
		}
	}
	w.proto.Deliver(nw, msg)
}

// TestDuplicatedResponseAfterNewerBatch: under latencies of 1–5 ticks and
// a fault plan duplicating one send in five, responses are duplicated and
// some copies land after their node has opened and sent a newer batch, so
// the newer batch is in flight when the copy arrives. Each such copy is
// dropped (batch ids are never reused), and every operation's value is the
// one below, measured on the map-keyed batches this protocol replaced.
// Processor p starts operations at 2p and then every 40 ticks, four waves,
// so batches pipeline at every node. The values skip numbers where a
// duplicated request was counted twice.
func TestDuplicatedResponseAfterNewerBatch(t *testing.T) {
	const n, waves = 8, 4
	want := []int{
		1, 2, 5, 8, 7, 9, 11, 12,
		14, 17, 18, 19, 16, 21, 22, 23,
		25, 24, 26, 30, 28, 31, 32, 33,
		34, 36, 39, 46, 40, 44, 43, 45,
	}
	w := &staleWatch{proto: newProto(n, 2)}
	m := w.proto.Machine()
	m.Proto = w
	c := counter.OnSim(m,
		sim.WithLatency(sim.UniformLatency{Min: 1, Max: 5}),
		sim.WithFaults(sim.FaultPlan{Dup: 0.2, Seed: 3}))
	var ids []sim.OpID
	for wave := range waves {
		for p := sim.ProcID(1); p <= n; p++ {
			ids = append(ids, c.Start(int64(2*int(p)+40*wave), p))
		}
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(ids))
	for i, id := range ids {
		v, ok := c.OpValue(id)
		if !ok {
			t.Fatalf("operation %d got no value", id)
		}
		got[i] = v
	}
	if w.stale == 0 {
		t.Fatal("no duplicated response landed while a newer batch was in flight")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("values\n got %v\nwant %v", got, want)
	}
}
