package registry

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// TestPerInitiatorIndependence is the concurrency conformance sweep of the
// universal op-state refactor: on every registered algorithm, operations
// started concurrently by distinct initiators — without any intermediate
// quiescence — must all complete with a recorded value and without
// cross-op state bleed (a value delivered into a foreign operation's
// context panics inside counter.Ops). For the quiescently consistent and
// linearizable classes the delivered values must additionally form a
// bijection onto {0..k-1}; the sequentially correct protocols may
// duplicate values under concurrency, which is exactly what the engine's
// verification measures.
func TestPerInitiatorIndependence(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := NewWith(name, 12, Concurrent(sim.WithSeed(3)))
			if err != nil {
				t.Fatal(err)
			}
			n := a.N()
			k := 8
			if k > n {
				k = n
			}
			// Two rounds back to back: the second proves per-initiator state
			// is fully reclaimed after completion.
			total := 0
			for round := 0; round < 2; round++ {
				ids := make(map[sim.OpID]sim.ProcID, k)
				base := a.(*counter.Sim).Net().Now()
				for i := 0; i < k; i++ {
					p := sim.ProcID(i + 1)
					// Stagger by less than a round trip so operations overlap.
					ids[a.Start(base+int64(i), p)] = p
				}
				if err := a.(*counter.Sim).Net().Run(); err != nil {
					t.Fatal(err)
				}
				seen := make(map[int]int)
				for id, p := range ids {
					v, ok := a.OpValue(id)
					if !ok {
						t.Fatalf("round %d: operation %d by %v completed without a value", round, id, p)
					}
					// Exact algorithms never mint a value outside
					// [0, total+k); approximate ones promise only the ε
					// bound (at these tiny counts they run their exact
					// warmup phase anyway, but the claim under test is the
					// guarantee, not the phase).
					if a.Guarantee().Level != counter.Approximate && (v < 0 || v >= total+k) {
						t.Fatalf("round %d: op by %v got value %d outside [0,%d)", round, p, v, total+k)
					}
					seen[v]++
				}
				switch a.Guarantee().Level {
				case counter.Quiescent, counter.Linearizable:
					for v := total; v < total+k; v++ {
						if seen[v] != 1 {
							t.Fatalf("round %d: value %d handed out %d times; distribution %v",
								round, v, seen[v], seen)
						}
					}
				}
				total += k
			}
		})
	}
}

// TestSequentialAfterConcurrent: a sequential Inc still works on a counter
// that just ran a concurrent batch — the op table must be empty again.
func TestSequentialAfterConcurrent(t *testing.T) {
	for _, name := range Names() {
		a, err := NewWith(name, 8, Concurrent(sim.WithSeed(5)))
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 4; p++ {
			a.Start(int64(p-1), sim.ProcID(p))
		}
		if err := a.(*counter.Sim).Net().Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := a.Inc(1); err != nil {
			t.Fatalf("%s: sequential Inc after concurrent batch: %v", name, err)
		}
	}
}
