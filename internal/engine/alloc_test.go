package engine

import (
	"testing"

	"distcount/internal/workload"
)

// TestRunWorkloadAllocCeiling pins an allocation budget on a small
// closed-loop run, counter construction included. Unlike the simulator's
// Send/Step guard (exactly zero), a workload run legitimately allocates:
// the counter and network are built fresh, the per-op metric slices are
// preallocated once, the result and its digests are assembled, and central
// boxes one value payload per operation. The ceiling leaves headroom over
// the measured cost (~220 objects for 200 ops at n=16: about one per op plus
// construction) but sits below the 425 of the map-backed op table, so a
// regression that reintroduces per-op allocation in the hot path (an op-table
// entry, per-send map inserts, per-quantile sort copies, append-growth of the
// metric slices) blows through it at once.
func TestRunWorkloadAllocCeiling(t *testing.T) {
	const (
		ops     = 200
		ceiling = 400 // objects per whole run (2 per op), measured ~220
	)
	run := func() {
		c := mustAsync(t, "central", 16)
		gen := mustScenario(t, "uniform", workload.Config{N: 16, Ops: ops, Seed: 1})
		if _, err := Run(c, gen, Config{InFlight: 8, Ops: ops}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm lazy runtime state out of the measurement
	if avg := testing.AllocsPerRun(10, run); avg > ceiling {
		t.Fatalf("RunWorkload allocates %.0f objects per %d-op run, ceiling %d", avg, ops, ceiling)
	}
}
