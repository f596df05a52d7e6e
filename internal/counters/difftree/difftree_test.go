package difftree

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counter/countertest"
	"distcount/internal/sim"
)

func factory(n int) counter.Counter {
	return counter.OnSim(NewMachine(n))
}

// startAll starts one operation per processor at starts[p-1] and runs the
// network to quiescence, returning the operation ids in processor order.
func startAll(t *testing.T, c *counter.Sim, starts ...int64) []sim.OpID {
	t.Helper()
	ids := make([]sim.OpID, len(starts))
	for i, at := range starts {
		ids[i] = c.Start(at, sim.ProcID(i+1))
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestConformance(t *testing.T) {
	countertest.Conformance(t, factory, 1, 2, 8, 33)
}

func TestCloneIndependence(t *testing.T) {
	countertest.CloneIndependence(t, factory, 16)
}

// TestSequentialExactCounting across widths, including tokens wrapping the
// leaf counters several times.
func TestSequentialExactCounting(t *testing.T) {
	for _, width := range []int{2, 4, 8, 16} {
		c := counter.OnSim(NewMachine(8, WithWidth(width)))
		for i := 0; i < 3*width+5; i++ {
			v, err := c.Inc(sim.ProcID(i%8 + 1))
			if err != nil {
				t.Fatal(err)
			}
			if v != i {
				t.Fatalf("width=%d: token %d got value %d", width, i, v)
			}
		}
	}
}

func TestSequentialNeverDiffracts(t *testing.T) {
	m := NewMachine(8)
	if _, err := counter.RunSequence(counter.OnSim(m), counter.SequentialOrder(8)); err != nil {
		t.Fatal(err)
	}
	if Diffracted(m) != 0 {
		t.Fatalf("sequential run diffracted %d pairs", Diffracted(m))
	}
	if RootToggles(m) != 8 {
		t.Fatalf("root toggles = %d, want 8 (every token)", RootToggles(m))
	}
}

// TestConcurrentDiffraction: simultaneous tokens with an open prism window
// must pair, skip toggles, and still receive distinct values.
func TestConcurrentDiffraction(t *testing.T) {
	const n = 16
	m := NewMachine(n, WithWidth(8), WithWindow(6))
	c := counter.OnSim(m)
	ids := startAll(t, c, make([]int64, n)...)
	if Diffracted(m) == 0 {
		t.Fatal("no diffraction despite simultaneous tokens")
	}
	seen := make([]bool, n)
	for i, id := range ids {
		p := i + 1
		v, ok := c.OpValue(id)
		if !ok {
			t.Fatalf("processor %d got no value", p)
		}
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("processor %d got invalid/duplicate value %d (quiescent counting broken)", p, v)
		}
		seen[v] = true
	}
}

// TestDiffractionRelievesRootToggle: with diffraction on, the root toggle
// fires strictly fewer times than once per token.
func TestDiffractionRelievesRootToggle(t *testing.T) {
	const n = 32
	run := func(window int64) int64 {
		m := NewMachine(n, WithWidth(8), WithWindow(window))
		startAll(t, counter.OnSim(m), make([]int64, n)...)
		return RootToggles(m)
	}
	if with, without := run(6), run(0); with >= without {
		t.Fatalf("diffraction did not relieve root toggles: %d vs %d", with, without)
	}
}

// TestPrismTimerAfterDiffractionIsNoOp: token A parks (timer armed), token
// B arrives and diffracts the pair; when A's stale timer later fires it
// must not double-route A. Distinct values prove no duplication.
func TestPrismTimerAfterDiffractionIsNoOp(t *testing.T) {
	m := NewMachine(8, WithWidth(4), WithWindow(10))
	c := counter.OnSim(m)
	// Processor 1 parks at the root at t=1, timer at t=11; processor 2
	// arrives t=3 and diffracts the pair.
	ids := startAll(t, c, 0, 2)
	v1, ok1 := c.OpValue(ids[0])
	v2, ok2 := c.OpValue(ids[1])
	if !ok1 || !ok2 {
		t.Fatal("missing values")
	}
	if v1 == v2 {
		t.Fatalf("duplicate value %d after stale timer", v1)
	}
	if Diffracted(m) != 1 {
		t.Fatalf("diffracted = %d, want 1", Diffracted(m))
	}
	if RootToggles(m) != 0 {
		t.Fatalf("root toggled %d times; the pair should have bypassed it", RootToggles(m))
	}
}

// TestParkedTokenSurvivesClone: cloning mid-flight is rejected (the network
// requires quiescence), but a parked token inside a *quiescent* network
// cannot exist — the timer always drains. This pins the invariant that
// quiescence implies empty prisms.
func TestParkedTokenSurvivesClone(t *testing.T) {
	c := counter.OnSim(NewMachine(8, WithWindow(5)))
	if _, err := c.Inc(3); err != nil { // runs to quiescence, timer drained
		t.Fatal(err)
	}
	cl, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Inc(4); err != nil || v != 1 {
		t.Fatalf("clone Inc = (%d, %v), want (1, nil)", v, err)
	}
}

func TestPrismTimerReleasesLoneToken(t *testing.T) {
	m := NewMachine(8, WithWindow(5))
	v, err := counter.OnSim(m).Inc(3) // a lone token must exit via the timer
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("value = %d, want 0", v)
	}
	if Diffracted(m) != 0 {
		t.Fatal("lone token diffracted")
	}
}

func TestMessagesPerOp(t *testing.T) {
	// depth hops through nodes + exit + value = depth + 2.
	c := counter.OnSim(NewMachine(8, WithWidth(8))) // depth 3
	if _, err := c.Inc(5); err != nil {
		t.Fatal(err)
	}
	if got := c.Net().MessagesTotal(); got != 5 {
		t.Fatalf("messages = %d, want 5", got)
	}
}

func TestInvalidWidthPanics(t *testing.T) {
	for _, w := range []int{1, 3, 12} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d: no panic", w)
				}
			}()
			NewMachine(4, WithWidth(w))
		}()
	}
}

func TestNegativeWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WithWindow(-3)
}

func TestName(t *testing.T) {
	if NewMachine(2).Name != "difftree" {
		t.Fatal("wrong name")
	}
}

// TestDiffractedOpCompletesAtValueDelivery: a diffracted operation's
// completion is the arrival of its value, not the expiry of the prism
// timer it left behind. op1 parks at the root at t=1 (timer due t=5); op2
// arrives at t=2 and diffracts it; op1's exit hop lands t=3 and its value
// t=4 — completion must report t=4, not t=5.
func TestDiffractedOpCompletesAtValueDelivery(t *testing.T) {
	m := NewMachine(2, WithWidth(2), WithWindow(4))
	c := counter.OnSim(m)
	done := map[sim.OpID]int64{}
	c.Net().OnOpDone(func(d sim.OpDone) { done[d.ID] = d.End })
	op1 := c.Start(0, 1)
	op2 := c.Start(1, 2)
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	if Diffracted(m) != 1 {
		t.Fatalf("diffracted = %d, want 1", Diffracted(m))
	}
	if done[op1] != 4 {
		t.Fatalf("diffracted op completed at t=%d, want 4 (value delivery, not timer expiry)", done[op1])
	}
	if done[op2] != 4 {
		t.Fatalf("partner op completed at t=%d, want 4", done[op2])
	}
	if _, ok := c.OpValue(op1); !ok {
		t.Fatal("op1 got no value")
	}
}
