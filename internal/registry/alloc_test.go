package registry

import (
	"testing"

	"distcount/internal/rt"
	"distcount/internal/sim"
)

// incAllocCeilings is the allocation budget of one sequential increment at
// n = 81 on a warm counter, per registry row. A message kind whose data fits
// in 64 bits travels as a zero-size kind value plus the message's inline
// word, and boxes nothing; so does a forwarded message, re-sent as it
// arrived, and so does a timer with a word (AfterWord). What is left is the
// kinds that do not fit, the tree's reply (valuePayload: a boxed reply, with
// the root's int boxed into it) and its retirement handoffs, and the quorum
// family's quorum, which the quorum system builds per operation (one slice,
// more for the grid, tree and wall). css-sample's fraction is the event
// ring's buckets growing under its 80-message broadcasts once, not a box.
// The op table, the simulator's events and the engine add nothing, so a
// figure above its ceiling means a message kind is being boxed again or
// per-operation bookkeeping has started allocating. The same quantity
// shows, rounded down, as allocs/op of `go test -bench 'BenchmarkInc$'
// -benchtime 2000x`; boxing every message (each payload once) measures here
// at 0.99, 12, 18, 12.8, 0.28, 6, 5, 0.99, 19.9, 42, 2.99, 17.4, 15.5 and 1
// in table order, so every row fails there.
var incAllocCeilings = map[string]float64{
	"central":          0,
	"cnet":             0,
	"cnet-periodic":    0,
	"combining":        0,
	"css-sample":       0.1,
	"ctree":            2,
	"difftree":         0,
	"gxu-threshold":    0,
	"quorum-grid":      2,
	"quorum-majority":  1,
	"quorum-singleton": 1,
	"quorum-tree":      5,
	"quorum-wall":      3,
	"tokenring":        0,
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
			n, i := c.N(), 0
			// One sequential Inc. It forgets its operation, so the simulator
			// recycles the record and what is counted is the protocol's own
			// allocation; an Inc that stops recycling fails here.
			inc := func() {
				if _, err := c.Inc(sim.ProcID(i%n + 1)); err != nil {
					t.Fatal(err)
				}
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
				t.Fatalf("%.2f allocs per Inc, ceiling %g", got, ceiling)
			}
		})
	}
}

// rtIncAllocCeiling is the rt backend's row of the same budget: one
// synchronous Inc on central at n = 8 allocates only its reply channel. Its
// operation record is recycled, its two messages carry their data in the
// word (a mailbox item holds it), and the runtime's mailboxes, completion
// path and load counters add nothing per operation. BenchmarkRTInc reports
// the same quantity. Under the race detector sync.Pool drops a quarter of
// the records it is given, so a quarter of the operations allocate theirs
// (raceSlack covers that and its sampling noise).
const (
	rtIncAllocCeiling = 1
	raceSlack         = 0.35
)

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
	ceiling := rtIncAllocCeiling + allocSlack
	if raceEnabled {
		ceiling += raceSlack
	}
	if got > ceiling {
		t.Fatalf("%.2f allocs per rt Inc, ceiling %d", got, rtIncAllocCeiling)
	}
}
