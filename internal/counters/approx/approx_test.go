package approx_test

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counters/approx"
	"distcount/internal/engine"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// runSequential drives ops round-robin increments through the paper's
// sequential model (network quiescent between operations) and returns
// every observed value in order.
func runSequential(t *testing.T, c interface {
	Inc(p sim.ProcID) (int, error)
	N() int
}, ops int) []int {
	t.Helper()
	vals := make([]int, ops)
	for i := 0; i < ops; i++ {
		v, err := c.Inc(sim.ProcID(i%c.N() + 1))
		if err != nil {
			t.Fatalf("inc %d: %v", i, err)
		}
		vals[i] = v
	}
	return vals
}

// TestThresholdWarmupExact: below the warmup count every operation takes
// the exact synchronous path, so a sequential run is the identity sequence
// — the property that makes small-count runs trivially verify at any ε.
func TestThresholdWarmupExact(t *testing.T) {
	c := counter.OnSim(approx.NewThresholdMachine(4)) // default ε=0.05 → warmup 321
	for i, v := range runSequential(t, c, 200) {
		if v != i {
			t.Fatalf("op %d got %d during warmup, want exact", i, v)
		}
	}
}

// TestThresholdLocalPhaseBounds: past warmup, sequential values must stay
// within ε below the true count (staleness) and must NEVER exceed it —
// the threshold scheme only ever counts real increments.
func TestThresholdLocalPhaseBounds(t *testing.T) {
	const eps = 0.2
	c := counter.OnSim(approx.NewThresholdMachine(4, approx.WithEpsilon(eps), approx.WithWarmup(8)))
	for i, v := range runSequential(t, c, 3000) {
		if v > i {
			t.Fatalf("op %d got %d > true count %d: threshold scheme overestimated", i, v, i)
		}
		if lo := (1 - eps) * float64(i); float64(v) < lo-1 {
			t.Fatalf("op %d got %d, below (1-ε)·%d = %.1f", i, v, i, lo)
		}
	}
}

// TestThresholdMessagesSubLinear: the whole point of paying ε — the
// message cost per operation falls as the count grows, far below the two
// messages per operation every exact centralized scheme pays.
func TestThresholdMessagesSubLinear(t *testing.T) {
	c := counter.OnSim(approx.NewThresholdMachine(4, approx.WithEpsilon(0.2), approx.WithWarmup(8)))
	runSequential(t, c, 1000)
	mid := c.Net().MessagesTotal()
	runSequential(t, c, 1000)
	tail := c.Net().MessagesTotal() - mid
	// Central pays 2 messages for 3 of every 4 operations at n=4 → 1500
	// for this block. The threshold scheme's report rate at count ≥ 1000
	// with T = ε·C/(2n) = C/40 ≥ 25 is under one report per 25 ops.
	if tail >= 500 {
		t.Fatalf("messages for ops 1000..2000 = %d, want sub-linear (< 500)", tail)
	}
}

// TestSampleWarmupExact: css-sample's warmup phase is exact, like gxu's.
func TestSampleWarmupExact(t *testing.T) {
	c := counter.OnSim(approx.NewSampleMachine(4)) // default ε=0.25 → warmup 65
	for i, v := range runSequential(t, c, 50) {
		if v != i {
			t.Fatalf("op %d got %d during warmup, want exact", i, v)
		}
	}
}

// TestSampleLocalPhaseBounds: past warmup the sampling estimate must track
// the true count within ε on a sequential run (where the only error
// sources are sampling noise and broadcast staleness).
func TestSampleLocalPhaseBounds(t *testing.T) {
	const eps = 0.25
	c := counter.OnSim(approx.NewSampleMachine(4, approx.WithEpsilon(eps), approx.WithWarmup(8)))
	for i, v := range runSequential(t, c, 4000) {
		lo, hi := (1-eps)*float64(i), (1+eps)*float64(i)
		if float64(v) < lo-1 || float64(v) > hi+1 {
			t.Fatalf("op %d got %d, outside (1±%g)·%d = [%.1f, %.1f]", i, v, eps, i, lo, hi)
		}
	}
}

// TestSampleDeterministic: the sampling streams are seeded, so two
// identical concurrent runs produce byte-identical values — what lets the
// accuracy study double-run byte-compare in CI.
func TestSampleDeterministic(t *testing.T) {
	run := func() []int {
		c := counter.OnSim(approx.NewSampleMachine(8, approx.WithWarmup(16)), sim.WithSeed(9))
		var ids []sim.OpID
		for i := 0; i < 400; i++ {
			ids = append(ids, c.Start(int64(i*2), sim.ProcID(i%8+1)))
		}
		if err := c.Net().Run(); err != nil {
			t.Fatal(err)
		}
		vals := make([]int, len(ids))
		for i, id := range ids {
			v, ok := c.OpValue(id)
			if !ok {
				t.Fatalf("op %d completed without a value", id)
			}
			vals[i] = v
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at op %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestConcurrentVerifiedWithinEpsilon drives both protocols through the
// workload engine — operations genuinely overlapping — with verification
// on: every value must stay within the claimed ε of the true-count
// bracket even with increments in flight.
func TestConcurrentVerifiedWithinEpsilon(t *testing.T) {
	builds := map[string]func() *counter.Sim{
		"gxu-threshold": func() *counter.Sim {
			return counter.OnSim(approx.NewThresholdMachine(8, approx.WithEpsilon(0.1), approx.WithWarmup(320)))
		},
		"css-sample": func() *counter.Sim {
			return counter.OnSim(approx.NewSampleMachine(8, approx.WithEpsilon(0.25), approx.WithWarmup(128)))
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			c := build()
			gen, err := workload.New("uniform", workload.Config{N: 8, Ops: 4000, Seed: 11, MeanGap: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(c, gen, engine.Config{InFlight: 8, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			v := res.Verification
			if v == nil {
				t.Fatal("no verification report")
			}
			if v.Violations != 0 || v.OutOfBound != 0 {
				t.Fatalf("%d violations (%d out of bound, max rel err %.3f): %s",
					v.Violations, v.OutOfBound, v.MaxRelError, v.First)
			}
			if v.Ops != 4000 || v.Missing != 0 {
				t.Fatalf("ops=%d missing=%d", v.Ops, v.Missing)
			}
		})
	}
}

// TestCloneIndependent: a cloned counter evolves independently — the
// lower-bound adversary machinery requires deep protocol copies, sampling
// streams included.
func TestCloneIndependent(t *testing.T) {
	c := counter.OnSim(approx.NewSampleMachine(4, approx.WithWarmup(8)))
	runSequential(t, c, 100)
	c2, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Same state, same streams: the next sequential values must agree.
	for i := 0; i < 50; i++ {
		p := sim.ProcID(i%4 + 1)
		v1, err1 := c.Inc(p)
		v2, err2 := c2.Inc(p)
		if err1 != nil || err2 != nil {
			t.Fatalf("inc: %v / %v", err1, err2)
		}
		if v1 != v2 {
			t.Fatalf("clone diverged at op %d: %d vs %d", i, v1, v2)
		}
	}
}
