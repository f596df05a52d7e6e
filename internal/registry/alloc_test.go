package registry

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/rt"
	"distcount/internal/sim"
)

// incAllocCeilings is the allocation budget of one sequential increment at
// n = 81 on a warm counter, per registry row. What is left is one box per
// message whose payload does not fit the runtime's allocation-free cases
// (central: the reply carrying a value above 255; cnet: every hop), plus the
// quorum slice of the quorum family. The op table, the simulator's events
// and the engine add nothing, a forwarded message reuses the box it arrived
// in, and a one-to-many send shares one box — so a figure above its ceiling
// means a payload is being boxed twice again or per-operation bookkeeping
// has started allocating. The same quantity shows, rounded down and with the
// simulator's unrecycled operation record on top, as allocs/op of
// `go test -bench 'BenchmarkInc$' -benchtime 2000x`; the map-backed op table
// and the re-boxing handlers measure here at 2, 13, 19, 26.7, 2.6, 11, 6, 2,
// 36.8, 82, 4, 28.9, 27.6 and 2 in table order, so every row fails there.
var incAllocCeilings = map[string]float64{
	"central":          1,
	"cnet":             12,
	"cnet-periodic":    18,
	"combining":        13,
	"css-sample":       1,
	"ctree":            7, // 6 plus the occasional retirement's 2k+3 messages
	"difftree":         5,
	"gxu-threshold":    1,
	"quorum-grid":      20,
	"quorum-majority":  42,
	"quorum-singleton": 3,
	"quorum-tree":      18,
	"quorum-wall":      16,
	"tokenring":        1,
}

// allocSlack absorbs the one-off growth of long-lived slices (event buckets,
// free lists) that a few hundred operations amortize to well under 0.05.
const allocSlack = 0.05

func TestIncAllocCeilings(t *testing.T) {
	for _, name := range Names() {
		ceiling, ok := incAllocCeilings[name]
		if !ok {
			t.Errorf("%s: registry row without an allocation ceiling", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			c, err := NewWith(name, 81, Sequential())
			if err != nil {
				t.Fatal(err)
			}
			net, n, i := c.Net(), c.N(), 0
			// One increment run to quiescence — counter.RunInc — followed by
			// the engine's ForgetOp, so the simulator recycles the operation
			// record and what is counted is the protocol's own allocation.
			inc := func() {
				id := c.Start(net.Now(), sim.ProcID(i%n+1))
				if err := net.Run(); err != nil {
					t.Fatal(err)
				}
				if _, ok := c.(counter.Valued).OpValue(id); !ok {
					t.Fatalf("operation %d ended without a value", id)
				}
				net.ForgetOp(id)
				i++
			}
			// Warm up past lazily built state (op-table slots, event buckets,
			// recycled batches) and past the first 256 values, which the
			// runtime boxes for free; whole rounds keep every initiator
			// equally represented in the average.
			for i < 4*n {
				inc()
			}
			// AllocsPerRun rounds its average down, which would hide a whole
			// extra allocation per operation (central reads 0.99); one run of
			// ten rounds keeps the fraction.
			rounds := func() {
				for k := 0; k < 10*n; k++ {
					inc()
				}
			}
			got := testing.AllocsPerRun(1, rounds) / float64(10*n)
			if got > ceiling+allocSlack {
				t.Fatalf("%.2f allocs per Inc, ceiling %.0f", got, ceiling)
			}
		})
	}
}

// rtIncAllocCeiling is the rt backend's row of the same budget: one
// synchronous Inc on central at n = 8 allocates its operation record, its
// reply channel and central's one boxed reply value (the ceiling above); the
// runtime's mailboxes, completion path and load counters add nothing per
// operation. BenchmarkRTInc reports the same quantity rounded down (2.98
// reads as 2 allocs/op).
const rtIncAllocCeiling = 3

func TestRTIncAllocCeiling(t *testing.T) {
	cfg := Concurrent()
	cfg.Backend = "rt"
	c, err := NewWith("central", 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := c.(*rt.Runtime)
	defer r.Close()
	n, i := r.N(), 0
	inc := func() {
		// Never the holder: every operation crosses both mailbox hops.
		if _, err := r.Inc(sim.ProcID(i%(n-1) + 2)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Warm up past mailbox growth and the first 256 values, which the
	// runtime boxes for free.
	for i < 300 {
		inc()
	}
	const rounds = 400
	got := testing.AllocsPerRun(1, func() {
		for k := 0; k < rounds; k++ {
			inc()
		}
	}) / rounds
	if got > rtIncAllocCeiling+allocSlack {
		t.Fatalf("%.2f allocs per rt Inc, ceiling %d", got, rtIncAllocCeiling)
	}
}
