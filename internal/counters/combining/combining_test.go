package combining

import (
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
