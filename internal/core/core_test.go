package core

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counter/countertest"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

func factory(n int) counter.Counter {
	return NewForSize(n)
}

func TestConformance(t *testing.T) {
	countertest.Conformance(t, factory, 8, 81)
}

func TestCloneIndependence(t *testing.T) {
	countertest.CloneIndependence(t, factory, 8)
}

func TestValueTracksOps(t *testing.T) {
	c := New(2)
	order := counter.SequentialOrder(c.N())
	if _, err := counter.RunSequence(c, order); err != nil {
		t.Fatal(err)
	}
	if c.Value() != c.N() {
		t.Fatalf("value = %d after %d ops", c.Value(), c.N())
	}
}

func TestNewForSizeRoundsUp(t *testing.T) {
	c := NewForSize(9)
	if c.K() != 3 || c.N() != 81 {
		t.Fatalf("NewForSize(9): k=%d n=%d, want k=3 n=81", c.K(), c.N())
	}
}

func TestDefaultRetireAge(t *testing.T) {
	if got := New(2).RetireAge(); got != 8 {
		t.Fatalf("default retire age for k=2 is %d, want 4k=8", got)
	}
	if got := New(2, WithRetireAge(5)).RetireAge(); got != 5 {
		t.Fatalf("explicit retire age = %d, want 5", got)
	}
	if got := New(2, WithRetireAge(0)).RetireAge(); got != 0 {
		t.Fatalf("disabled retire age = %d, want 0", got)
	}
}

func TestRetirementHappens(t *testing.T) {
	c := New(2)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Retirements == 0 {
		t.Fatal("no retirements over the canonical workload; the mechanism is untested")
	}
	if c.Stats().Ops != int64(c.N()) {
		t.Fatalf("ops = %d, want %d", c.Stats().Ops, c.N())
	}
}

func TestDifferentOrdersStayCorrect(t *testing.T) {
	for _, k := range []int{2, 3} {
		for seed := uint64(1); seed <= 5; seed++ {
			c := New(k)
			if err := verify.Counter(c, counter.RandomOrder(c.N(), seed)); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			if _, count := c.Violations(); count != 0 {
				v, _ := c.Violations()
				t.Fatalf("k=%d seed=%d: %d lemma violations, first: %v", k, seed, count, v)
			}
		}
	}
}

func TestAsyncLatencyStaysCorrect(t *testing.T) {
	// Under reordering (uniform random) latencies, correctness and the
	// lemmas must still hold: the paper's model allows arbitrary finite
	// delays.
	for seed := uint64(1); seed <= 3; seed++ {
		c := New(2, WithSimOptions(
			sim.WithSeed(seed),
			sim.WithLatency(sim.UniformLatency{Min: 1, Max: 17}),
		))
		if err := verify.Counter(c, counter.RandomOrder(c.N(), seed)); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if _, count := c.Violations(); count != 0 {
			v, _ := c.Violations()
			t.Fatalf("seed=%d: %d violations, first: %v", seed, count, v)
		}
	}
}

func TestWithoutRetirementRootIsBottleneck(t *testing.T) {
	// Ablation: disabling retirement degenerates the tree into a static
	// hierarchy whose root processor carries Θ(n) load — the design choice
	// the paper's Section 4 exists to avoid.
	c := New(2, WithRetireAge(0))
	n := c.N()
	if _, err := counter.RunSequence(c, counter.SequentialOrder(n)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Retirements != 0 {
		t.Fatalf("retirements = %d with retirement disabled", c.Stats().Retirements)
	}
	// Root stays at processor 1: it receives n incs and sends n values.
	if got := c.Net().Load(1); got < int64(2*n) {
		t.Fatalf("root processor load = %d, want >= %d", got, 2*n)
	}
}

func TestAggressiveThresholdBreaksLemmas(t *testing.T) {
	// Ablation: a threshold of 2 is below the k+3 messages a fresh
	// processor can absorb in one operation, so the Retirement Lemma's
	// precondition fails; pools exhaust and/or nodes retire repeatedly.
	// This demonstrates why the threshold must be Θ(k) with a sufficient
	// constant.
	c := New(2, WithRetireAge(2))
	if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
		t.Fatal(err)
	}
	_, violations := c.Violations()
	if violations == 0 && c.Stats().PoolExhausted == 0 {
		t.Fatal("aggressive threshold produced no violations and no pool exhaustion; ablation not discriminating")
	}
}

func TestHandoffConsistencySelfCheck(t *testing.T) {
	// The handoff job message carries the authoritative state; its
	// delivery cross-checks the transfer. Running a full workload without
	// panics exercises that path (retirements are guaranteed, see
	// TestRetirementHappens).
	c := New(3)
	if _, err := counter.RunSequence(c, counter.RandomOrder(c.N(), 3)); err != nil {
		t.Fatal(err)
	}
}

func TestNodesSnapshot(t *testing.T) {
	c := New(2)
	nodes := c.Nodes()
	if len(nodes) != 7 { // 1 + 2 + 4 inner nodes for k=2
		t.Fatalf("node count = %d, want 7", len(nodes))
	}
	if nodes[0].Level != 0 || nodes[0].Cur != 1 || nodes[0].PoolSize != 4 {
		t.Fatalf("root snapshot wrong: %+v", nodes[0])
	}
	// Mutating the snapshot must not affect the counter.
	nodes[0].Cur = 99
	if c.Nodes()[0].Cur != 1 {
		t.Fatal("snapshot aliases internal state")
	}
}

func TestHostedInner(t *testing.T) {
	c := New(2)
	// Initially, pool-start processors host roles.
	if !c.HostedInner(1) {
		t.Fatal("processor 1 hosts the root initially")
	}
	// Processor 8 = pool of the last level-2 node (pools of size 1 tile
	// 5..8 for k=2)... level 2 pools start at (2-1)*4 + j + 1 = 5,6,7,8.
	if !c.HostedInner(8) {
		t.Fatal("processor 8 hosts a level-2 node")
	}
}

func TestIncByInvalidProcessorPanics(t *testing.T) {
	c := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Inc(9) on n=8 did not panic")
		}
	}()
	_, _ = c.Inc(9)
}

func TestOptionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative retire age did not panic")
		}
	}()
	WithRetireAge(-1)
}

func TestName(t *testing.T) {
	if New(2).Name() != "ctree" {
		t.Fatal("wrong name")
	}
}
