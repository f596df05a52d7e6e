package cnet

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

func periodicFactory(n int) counter.Counter {
	return counter.OnSim(NewMachine(n, WithConstruction(Periodic)), sim.WithTracing())
}

// onSim runs the network opts describe on a fresh simulator and returns its
// protocol too, for the structural readouts the tests check.
func onSim(n int, opts ...Option) (*counter.Sim, *proto) {
	pr := build(n, opts)
	return counter.OnSim(pr.Machine()), pr
}

// wireCounts returns the per-output-wire token counts handed out so far:
// counts[w] = number of tokens that left on wire w.
func wireCounts(pr *proto) []int {
	out := make([]int, pr.width)
	for w, next := range pr.wireCount {
		out[w] = (next - w) / pr.width
	}
	return out
}

func TestConformance(t *testing.T) {
	countertest.Conformance(t, factory, 1, 2, 8, 33)
}

func TestConformancePeriodic(t *testing.T) {
	countertest.Conformance(t, periodicFactory, 1, 2, 8, 33)
}

func TestCloneIndependence(t *testing.T) {
	countertest.CloneIndependence(t, factory, 16)
}

// TestSequentialExactCounting: the defining property in the sequential
// regime — token t receives exactly value t — across widths and both
// constructions.
func TestSequentialExactCounting(t *testing.T) {
	for _, construction := range []Construction{Bitonic, Periodic} {
		for _, width := range []int{2, 4, 8, 16, 32} {
			c, _ := onSim(8, WithWidth(width), WithConstruction(construction))
			for i := 0; i < 3*width+5; i++ {
				p := sim.ProcID(i%8 + 1)
				v, err := c.Inc(p)
				if err != nil {
					t.Fatal(err)
				}
				if v != i {
					t.Fatalf("%v width=%d: token %d got value %d", construction, width, i, v)
				}
			}
		}
	}
}

// TestPeriodicDepth: the periodic network has lg²w stages of w/2 balancers.
func TestPeriodicDepth(t *testing.T) {
	for _, c := range []struct{ width, depth int }{
		{2, 1}, {4, 4}, {8, 9}, {16, 16},
	} {
		pr := build(4, []Option{WithWidth(c.width), WithConstruction(Periodic)})
		if pr.depth() != c.depth {
			t.Fatalf("periodic width %d: depth = %d, want %d", c.width, pr.depth(), c.depth)
		}
		if len(pr.balancers) != c.depth*c.width/2 {
			t.Fatalf("periodic width %d: balancers = %d, want %d", c.width, len(pr.balancers), c.depth*c.width/2)
		}
	}
}

// TestPeriodicStepProperty: quiescent step property holds for the periodic
// construction too.
func TestPeriodicStepProperty(t *testing.T) {
	const width = 8
	c, pr := onSim(4, WithWidth(width), WithConstruction(Periodic))
	for i := 0; i < 21; i++ {
		if _, err := c.Inc(sim.ProcID(i%4 + 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i, got := range wireCounts(pr) {
		want := (21 - i + width - 1) / width
		if got != want {
			t.Fatalf("wire %d count = %d, want %d", i, got, want)
		}
	}
}

func TestConstructionNamesAndString(t *testing.T) {
	if NewMachine(4).Name != "cnet" {
		t.Fatal("bitonic name wrong")
	}
	if NewMachine(4, WithConstruction(Periodic)).Name != "cnet-periodic" {
		t.Fatal("periodic name wrong")
	}
	if Bitonic.String() != "bitonic" || Periodic.String() != "periodic" {
		t.Fatal("Construction.String wrong")
	}
	if Construction(9).String() == "" {
		t.Fatal("unknown construction string empty")
	}
	if got := build(4, []Option{WithConstruction(Periodic)}).construction; got != Periodic {
		t.Fatalf("construction = %v", got)
	}
}

func TestUnknownConstructionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMachine(4, WithConstruction(Construction(99)))
}

// TestStepProperty: after T sequential tokens the output wire counts
// satisfy the step property: wire i has ceil((T-i)/w) tokens.
func TestStepProperty(t *testing.T) {
	const width = 8
	c, pr := onSim(4, WithWidth(width))
	for i := 0; i < 29; i++ {
		if _, err := c.Inc(sim.ProcID(i%4 + 1)); err != nil {
			t.Fatal(err)
		}
	}
	counts := wireCounts(pr)
	total := 0
	for i, got := range counts {
		want := (29 - i + width - 1) / width
		if got != want {
			t.Fatalf("wire %d count = %d, want %d (counts %v)", i, got, want, counts)
		}
		total += got
	}
	if total != 29 {
		t.Fatalf("total tokens %d, want 29", total)
	}
}

func TestDepthFormula(t *testing.T) {
	for _, c := range []struct{ width, depth, balancers int }{
		{2, 1, 1},
		{4, 3, 6},
		{8, 6, 24},
		{16, 10, 80},
	} {
		pr := build(4, []Option{WithWidth(c.width)})
		if pr.depth() != c.depth {
			t.Fatalf("width %d: depth = %d, want %d", c.width, pr.depth(), c.depth)
		}
		if len(pr.balancers) != c.balancers {
			t.Fatalf("width %d: balancers = %d, want %d", c.width, len(pr.balancers), c.balancers)
		}
	}
}

func TestMessagesPerOp(t *testing.T) {
	// One op costs depth+2 messages: entry, stage transitions, exit to the
	// wire owner, value back. (Stage hops between balancers on the same
	// host still count: they are messages in the network model.)
	c, pr := onSim(8, WithWidth(4))
	if _, err := c.Inc(3); err != nil {
		t.Fatal(err)
	}
	want := int64(pr.depth() + 2)
	if got := c.Net().MessagesTotal(); got != want {
		t.Fatalf("messages = %d, want %d", got, want)
	}
}

// TestLoadSpreadAcrossBalancerHosts: with width >= n the per-processor load
// is flatter than the centralized counter's: the bottleneck is o(n) —
// though total messages are much larger.
func TestLoadSpreadAcrossBalancerHosts(t *testing.T) {
	const n = 32
	c := counter.OnSim(NewMachine(n, WithWidth(32)))
	if _, err := counter.RunSequence(c, counter.SequentialOrder(n)); err != nil {
		t.Fatal(err)
	}
	s := loadstat.SummarizeLoads(c.Net().Loads())
	// Θ(n) would be >= 2(n-1) = 62; the network must stay clearly below.
	if s.MaxLoad >= int64(2*(n-1)) {
		t.Fatalf("bottleneck %d not below centralized 2(n-1) = %d", s.MaxLoad, 2*(n-1))
	}
}

func TestInvalidWidthPanics(t *testing.T) {
	for _, w := range []int{1, 3, 6} {
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

func TestDefaultWidth(t *testing.T) {
	if got := build(8, nil).width; got != 8 {
		t.Fatalf("default width for n=8 is %d, want 8", got)
	}
	if got := build(100, nil).width; got != 16 {
		t.Fatalf("default width for n=100 is %d, want 16 (capped)", got)
	}
	if got := build(1, nil).width; got != 2 {
		t.Fatalf("default width for n=1 is %d, want 2", got)
	}
}

func TestName(t *testing.T) {
	if counter.OnSim(NewMachine(2)).Name() != "cnet" {
		t.Fatal("wrong name")
	}
}
