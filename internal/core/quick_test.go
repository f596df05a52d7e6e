package core

import (
	"testing"
	"testing/quick"

	"distcount/internal/counter"
	"distcount/internal/loadstat"
	"distcount/internal/rng"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

// Property-based tests (testing/quick) over the paper's counter: for
// arbitrary operation orders, seeds and latency models, counting semantics,
// the Section 4 lemmas and the O(k) bottleneck envelope must all hold.

// TestQuickAnyOrderCountsCorrectly: any permutation of the canonical
// workload yields exact counting, the Hot Spot property, zero lemma
// violations, and an O(k) bottleneck.
func TestQuickAnyOrderCountsCorrectly(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(seed uint64) bool {
		c := New(2)
		order := counter.RandomOrder(c.N(), seed)
		if err := verify.Counter(c, order); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if _, violations := c.Violations(); violations != 0 {
			t.Logf("seed %d: %d violations", seed, violations)
			return false
		}
		s := loadstat.SummarizeLoads(c.Net().Loads())
		return s.MaxLoad <= int64(2*(8*2+10)+2)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPartialWorkloads: prefixes of the canonical workload (not every
// processor increments) must still count exactly and respect the lemmas —
// the implementation cannot depend on the full workload running.
func TestQuickPartialWorkloads(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(seed uint64, lenRaw uint8) bool {
		c := New(2)
		order := counter.RandomOrder(c.N(), seed)
		order = order[:1+int(lenRaw)%len(order)]
		res, err := counter.RunSequence(c, order)
		if err != nil {
			return false
		}
		if err := verify.Sequential(res); err != nil {
			return false
		}
		_, violations := c.Violations()
		return violations == 0
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickArbitraryLatencies: random latency bounds and seeds (message
// reordering) never break counting or the lemmas.
func TestQuickArbitraryLatencies(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(func(seed uint64, maxRaw uint8) bool {
		max := int64(maxRaw%20) + 1
		c := New(2, WithSimOptions(
			sim.WithSeed(seed),
			sim.WithLatency(sim.UniformLatency{Min: 1, Max: max}),
		))
		if err := verify.Counter(c, counter.RandomOrder(c.N(), seed)); err != nil {
			t.Logf("seed=%d max=%d: %v", seed, max, err)
			return false
		}
		_, violations := c.Violations()
		return violations == 0
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCloneDivergence: cloning at a random point and running different
// suffixes leaves the original's state and loads untouched, and both copies
// count correctly from the shared prefix.
func TestQuickCloneDivergence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(func(seed uint64, cutRaw uint8) bool {
		c := New(2)
		order := counter.RandomOrder(c.N(), seed)
		cut := 1 + int(cutRaw)%(len(order)-1)
		if _, err := counter.RunSequence(c, order[:cut]); err != nil {
			return false
		}
		cl, err := c.Clone()
		if err != nil {
			return false
		}
		msgsBefore := c.Net().MessagesTotal()

		// Clone runs the rest in reverse order; original in given order.
		rest := append([]sim.ProcID(nil), order[cut:]...)
		for i, j := 0, len(rest)-1; i < j; i, j = i+1, j-1 {
			rest[i], rest[j] = rest[j], rest[i]
		}
		resClone, err := counter.RunSequence(cl, rest)
		if err != nil {
			return false
		}
		if c.Net().MessagesTotal() != msgsBefore {
			return false // clone leaked into original
		}
		resOrig, err := counter.RunSequence(c, order[cut:])
		if err != nil {
			return false
		}
		for i := range resOrig.Values {
			if resOrig.Values[i] != cut+i || resClone.Values[i] != cut+i {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMixedReqsOnTree: the generic tree serves interleaved counter
// requests correctly even when requests carry arbitrary payloads (the
// counter ignores them) — guards the request plumbing added for the
// extension data types.
func TestQuickMixedReqsOnTree(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(func(seed uint64) bool {
		tr := NewTree(2, &counterState{})
		r := rng.New(seed)
		// Canonical workload (a permutation — the lemmas' precondition)
		// with junk requests attached.
		for i, leaf := range r.Perm(tr.N()) {
			reply, err := tr.Do(sim.ProcID(leaf+1), r.Intn(100)) // junk request, ignored
			if err != nil {
				return false
			}
			if reply.(int) != i {
				return false
			}
		}
		_, violations := tr.Violations()
		return violations == 0
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedInitiatorConcentratesLoad documents why the paper restricts
// the workload to one operation per processor: when a single processor
// initiates everything, its own load is Θ(#ops) — it participates in every
// I_p — so no algorithm can spread it. ("One can easily show that the
// amount of achievable distribution is limited if many operations are
// initiated by a single processor.")
func TestRepeatedInitiatorConcentratesLoad(t *testing.T) {
	c := New(2)
	ops := 32
	for i := 0; i < ops; i++ {
		if _, err := c.Inc(5); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Net().Load(5); got < int64(2*ops) {
		t.Fatalf("initiator load = %d, want >= %d (send+receive per op)", got, 2*ops)
	}
}
