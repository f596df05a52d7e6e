package engine

import (
	"runtime"
	"testing"

	"distcount/internal/countersvc"
	"distcount/internal/registry"
	"distcount/internal/workload"
)

// TestRunWorkloadAllocCeiling pins an allocation budget on a small
// closed-loop run, counter construction included. Unlike the simulator's
// Send/Step guard (exactly zero), a workload run legitimately allocates:
// the counter and network are built fresh, the engine's two stages start
// with their rings, the latency digests allocate a page of counts for the
// latencies seen, the in-flight sweep buffers one chunk of intervals
// and the result is assembled. The ceiling leaves headroom over the measured
// cost (81 objects for 200 ops at n=16, nearly all construction; 199 while
// every event bucket grew by doubling) but sits below the 425 of the
// map-backed op table, so a regression that reintroduces per-op allocation
// in the hot path (an op-table entry, per-send map inserts, per-quantile
// sort copies) blows through it at once.
func TestRunWorkloadAllocCeiling(t *testing.T) {
	const (
		ops     = 200
		ceiling = 400 // objects per whole run (2 per op), measured 81
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

// TestRunFootprintPerOp pins the bytes a run allocates per operation, and
// that the figure does not rise with the operation count: what the harness
// keeps per completion is digests, a sweep chunk and the verifier's
// unresolved operations, so quadrupling a run must only amortize its fixed
// costs further. The ceilings leave headroom over the measured cost and sit
// well below what per-op bookkeeping costs:
//
//	central, n=64, closed loop    0.8 B/op at 200k ops, 3.2 at 50k; with
//	                              five int64 vectors sized by ops it was 49
//	central, n=64, Verify on      1.4 B/op at 200k ops, 5.7 at 50k: the same
//	                              plus the verifier's first pending chunk; a
//	                              history of every value checked post hoc
//	                              made it 52
//	4 central shards, Verify on   7.7 B/op at 200k ops, 13 at 50k: each (key,
//	                              epoch) segment's value bitset (~5: which
//	                              segment held a value is needed for as long
//	                              as a duplicate of it may come). A history
//	                              checked post hoc made it 88, a copy of it
//	                              per shard and per segment 472
//	rt central, n=8, Verify on    5.2 B/op at 200k ops, 19 at 50k: the
//	                              digests' pages, allocated once per run, are
//	                              most of it; the operation records are
//	                              recycled. An allocated record per
//	                              operation, raw wall-clock strays and a
//	                              table grown by doubling made it 58, 87 and
//	                              36. Under -race 21 and 37 (before: 30 and
//	                              68): sync.Pool drops a quarter of what it
//	                              is given
func TestRunFootprintPerOp(t *testing.T) {
	for _, row := range []struct {
		name    string
		ceiling float64 // bytes per operation
		race    float64 // the ceiling under the race detector, when higher
		run     func(t *testing.T, ops int)
	}{
		{"central closed loop", 30, 0, func(t *testing.T, ops int) {
			c := mustAsync(t, "central", 64)
			gen := mustScenario(t, "uniform", workload.Config{N: 64, Ops: ops, Seed: 1})
			if _, err := Run(c, gen, Config{InFlight: 8, Ops: ops}); err != nil {
				t.Fatal(err)
			}
		}},
		{"single counter, verified", 25, 0, func(t *testing.T, ops int) {
			c := mustAsync(t, "central", 64)
			gen := mustScenario(t, "uniform", workload.Config{N: 64, Ops: ops, Seed: 1})
			res, err := Run(c, gen, Config{InFlight: 8, Ops: ops, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verification.Violations != 0 || res.Verification.Ops != ops {
				t.Fatalf("verification: %+v", res.Verification)
			}
		}},
		{"rt central, n=8, verified", 25, 50, func(t *testing.T, ops int) {
			c, err := registry.NewWith("central", 8, registry.Config{Backend: "rt"})
			if err != nil {
				t.Fatal(err)
			}
			gen := mustScenario(t, "uniform", workload.Config{N: 8, Ops: ops, Seed: 1})
			res, err := Run(c, gen, Config{InFlight: 8, Ops: ops, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verification.Violations != 0 || res.Verification.Ops != ops {
				t.Fatalf("verification: %+v", res.Verification)
			}
		}},
		{"keyed, verified", 30, 0, func(t *testing.T, ops int) {
			svc := keyedSvc(t, countersvc.Config{Keys: 64, N: 64, Shards: 4,
				Registry: registry.Config{Window: registry.DefaultWindow}})
			gen := keyedGen(t, workload.Config{N: 64, Ops: ops, Seed: 1, Keys: 64, KeyZipfS: 1.2}, "uniform")
			res, err := RunKeyed(svc, gen, Config{InFlight: 8, Ops: ops, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verification.Violations != 0 {
				t.Fatalf("verification found %d violations: %s", res.Verification.Violations, res.Verification.First)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			perOp := func(ops int) float64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				row.run(t, ops)
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
			}
			perOp(1000) // warm lazy runtime state out of the measurement
			short, long := perOp(50_000), perOp(200_000)
			t.Logf("%.1f B/op at 50k ops, %.1f B/op at 200k", short, long)
			ceiling := row.ceiling
			if raceEnabled {
				ceiling = max(ceiling, row.race)
			}
			if short > ceiling || long > ceiling {
				t.Errorf("run allocates %.1f B/op at 50k ops and %.1f at 200k, ceiling %.0f", short, long, ceiling)
			}
			if long > short+1 {
				t.Errorf("bytes per op rise with the run's length: %.1f at 50k ops, %.1f at 200k", short, long)
			}
		})
	}
}
