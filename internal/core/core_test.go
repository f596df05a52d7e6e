package core

import (
	"slices"
	"strconv"
	"strings"
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

// TestCloneIndependence clones the tree's simulated counter, as the
// adversary does: the copy carries the instrumented protocol with it.
func TestCloneIndependence(t *testing.T) {
	countertest.CloneIndependence(t, func(n int) counter.Counter { return NewForSize(n).Sim }, 8)
}

func TestValueTracksOps(t *testing.T) {
	c := New(2)
	order := counter.SequentialOrder(c.N())
	if _, err := counter.RunSequence(c, order); err != nil {
		t.Fatal(err)
	}
	if v := c.State().(*counterState).val; v != c.N() {
		t.Fatalf("value = %d after %d ops", v, c.N())
	}
}

// TestDoForgetsItsOperation: Tree.Do runs its operation to completion,
// retirement cascades included, so the network has freed the operation's
// record (it does so with the last event) by the time Do returns.
func TestDoForgetsItsOperation(t *testing.T) {
	c := New(2)
	var last sim.OpDone
	c.Net().OnOpDone(func(d sim.OpDone) { last = d })
	for _, p := range counter.RandomOrder(c.N(), 5) {
		if _, err := c.Inc(p); err != nil {
			t.Fatal(err)
		}
		if id := sim.OpID(c.Net().Ops()); last.ID != id || last.Initiator != p {
			t.Fatalf("op %d by %v: last completion %+v", id, p, last)
		}
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

// TestLemmaWindowClosesItself: the checker evaluates an operation's
// Retirement and Grow Old Lemma window without a further operation closing
// it. Under an aggressive threshold the first operation that breaks a lemma
// is made the last one of a run; the readouts taken right after it report
// the break, and reading them again adds nothing.
func TestLemmaWindowClosesItself(t *testing.T) {
	order := counter.SequentialOrder(SizeForK(2))
	full := New(2, WithRetireAge(1))
	if _, err := counter.RunSequence(full, order); err != nil {
		t.Fatal(err)
	}
	first := 0 // the first operation whose window broke a lemma
	msgs, _ := full.Violations()
	for _, v := range msgs {
		if !strings.Contains(v, "lemma:") {
			continue
		}
		op, err := strconv.Atoi(v[strings.LastIndex(v, " ")+1:])
		if err != nil {
			t.Fatalf("violation %q: %v", v, err)
		}
		if first == 0 || op < first {
			first = op
		}
	}
	if first == 0 {
		t.Fatal("threshold 1 broke no lemma: the ablation does not reach the window check")
	}

	type readout struct {
		msgs                  []string
		count                 int64
		retireMax, growOldMax int
	}
	read := func(c *Tree) readout {
		msgs, count := c.Violations()
		return readout{msgs, count, c.RetirePerOpMax(), c.GrowOldMax()}
	}
	run := func(ops int) *Tree {
		c := New(2, WithRetireAge(1))
		if _, err := counter.RunSequence(c, order[:ops]); err != nil {
			t.Fatal(err)
		}
		return c
	}
	before := read(run(first - 1))
	if before.retireMax > 1 || before.growOldMax > 4 {
		t.Fatalf("before op %d the maxima already break a lemma: %+v", first, before)
	}
	c := run(first)
	after := read(c)
	suffix := " in op " + strconv.Itoa(first)
	if !slices.ContainsFunc(after.msgs, func(v string) bool { return strings.HasSuffix(v, suffix) }) {
		t.Fatalf("op %d's lemma violation is not reported right after it: %v", first, after.msgs)
	}
	if after.count <= before.count || (after.retireMax <= 1 && after.growOldMax <= 4) {
		t.Fatalf("op %d's window went uncounted: before %+v, after %+v", first, before, after)
	}
	if again := read(c); again.count != after.count || again.retireMax != after.retireMax ||
		again.growOldMax != after.growOldMax || !slices.Equal(again.msgs, after.msgs) {
		t.Fatalf("a second read changed the readouts: %+v, then %+v", after, again)
	}
}

// TestIncOnNonCounterTreeErrs: the tree's Machine reads an integer reply;
// a root state that answers otherwise makes Inc an error, not a panic.
func TestIncOnNonCounterTreeErrs(t *testing.T) {
	tr := NewTree(2, &echoState{})
	if _, err := tr.Inc(1); err == nil {
		t.Fatal("Inc on a tree whose root answers a string returned no error")
	}
	if reply, err := tr.Do(2, "ping"); err != nil || reply != "ping" {
		t.Fatalf("Do after the failed Inc = (%v, %v), want (ping, nil)", reply, err)
	}
}

// echoState answers every request with a string.
type echoState struct{}

func (*echoState) Apply(req any) any {
	if req == nil {
		return "inc"
	}
	return req
}

func (s *echoState) CloneState() RootState { return s }

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
