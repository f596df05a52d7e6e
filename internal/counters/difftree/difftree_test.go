package difftree

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counter/countertest"
	"distcount/internal/sim"
)

func factory(n int) counter.Counter {
	return New(n, WithSimOptions(sim.WithTracing()))
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
		c := New(8, WithWidth(width))
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
	c := New(8)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(8)); err != nil {
		t.Fatal(err)
	}
	if c.Diffracted() != 0 {
		t.Fatalf("sequential run diffracted %d pairs", c.Diffracted())
	}
	if c.RootToggles() != 8 {
		t.Fatalf("root toggles = %d, want 8 (every token)", c.RootToggles())
	}
}

// TestConcurrentDiffraction: simultaneous tokens with an open prism window
// must pair, skip toggles, and still receive distinct values.
func TestConcurrentDiffraction(t *testing.T) {
	const n = 16
	c := New(n, WithWidth(8), WithWindow(6))
	for p := 1; p <= n; p++ {
		c.Start(0, sim.ProcID(p))
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	if c.Diffracted() == 0 {
		t.Fatal("no diffraction despite simultaneous tokens")
	}
	seen := make([]bool, n)
	for p := 1; p <= n; p++ {
		v, ok := c.ValueOf(sim.ProcID(p))
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
		c := New(n, WithWidth(8), WithWindow(window))
		for p := 1; p <= n; p++ {
			c.Start(0, sim.ProcID(p))
		}
		if err := c.Net().Run(); err != nil {
			t.Fatal(err)
		}
		return c.RootToggles()
	}
	if with, without := run(6), run(0); with >= without {
		t.Fatalf("diffraction did not relieve root toggles: %d vs %d", with, without)
	}
}

// TestPrismTimerAfterDiffractionIsNoOp: token A parks (timer armed), token
// B arrives and diffracts the pair; when A's stale timer later fires it
// must not double-route A. Distinct values prove no duplication.
func TestPrismTimerAfterDiffractionIsNoOp(t *testing.T) {
	c := New(8, WithWidth(4), WithWindow(10))
	c.Start(0, 1) // parks at the root at t=1, timer at t=11
	c.Start(2, 2) // arrives t=3: diffracts the pair
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	v1, ok1 := c.ValueOf(1)
	v2, ok2 := c.ValueOf(2)
	if !ok1 || !ok2 {
		t.Fatal("missing values")
	}
	if v1 == v2 {
		t.Fatalf("duplicate value %d after stale timer", v1)
	}
	if c.Diffracted() != 1 {
		t.Fatalf("diffracted = %d, want 1", c.Diffracted())
	}
	if c.RootToggles() != 0 {
		t.Fatalf("root toggled %d times; the pair should have bypassed it", c.RootToggles())
	}
}

// TestParkedTokenSurvivesClone: cloning mid-flight is rejected (the network
// requires quiescence), but a parked token inside a *quiescent* network
// cannot exist — the timer always drains. This pins the invariant that
// quiescence implies empty prisms.
func TestParkedTokenSurvivesClone(t *testing.T) {
	c := New(8, WithWindow(5))
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
	c := New(8, WithWindow(5))
	v, err := c.Inc(3) // a lone token must exit via the timer
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("value = %d, want 0", v)
	}
	if c.Diffracted() != 0 {
		t.Fatal("lone token diffracted")
	}
}

func TestMessagesPerOp(t *testing.T) {
	// depth hops through nodes + exit + value = depth + 2.
	c := New(8, WithWidth(8)) // depth 3
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
			New(4, WithWidth(w))
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
	if New(2).Name() != "difftree" {
		t.Fatal("wrong name")
	}
}

// TestDiffractedOpCompletesAtValueDelivery: a diffracted operation's
// completion is the arrival of its value, not the expiry of the prism
// timer it left behind. op1 parks at the root at t=1 (timer due t=5); op2
// arrives at t=2 and diffracts it; op1's exit hop lands t=3 and its value
// t=4 — completion must report t=4, not t=5.
func TestDiffractedOpCompletesAtValueDelivery(t *testing.T) {
	c := New(2, WithWidth(2), WithWindow(4))
	done := map[sim.OpID]int64{}
	c.Net().OnOpDone(func(st *sim.OpStats) { done[st.ID] = st.DoneAt })
	op1 := c.Start(0, 1)
	op2 := c.Start(1, 2)
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	if c.Diffracted() != 1 {
		t.Fatalf("diffracted = %d, want 1", c.Diffracted())
	}
	if done[op1] != 4 {
		t.Fatalf("diffracted op completed at t=%d, want 4 (value delivery, not timer expiry)", done[op1])
	}
	if done[op2] != 4 {
		t.Fatalf("partner op completed at t=%d, want 4", done[op2])
	}
	if _, ok := c.ValueOf(1); !ok {
		t.Fatal("op1 got no value")
	}
}
