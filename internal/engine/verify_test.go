package engine

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// verifiedRun drives one closed-loop zipf workload with verification on.
func verifiedRun(t *testing.T, algo string, n, ops int, gap int64) *Result {
	t.Helper()
	c, err := registry.NewWith(algo, n, registry.Concurrent())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New("zipf", workload.Config{N: c.N(), Ops: ops, Seed: 9, MeanGap: gap})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, gen, Config{InFlight: 8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verification == nil {
		t.Fatalf("%s: verification missing from result", algo)
	}
	return res
}

// TestVerifyClaimedProperties: every algorithm's claimed guarantee holds
// under concurrent load — zero violations across the whole registry —
// while the sequential-only protocols are allowed (and, for tokenring,
// expected) to show duplicate values as a measurement. The exactly-once
// sweep applies only to the exact exactly-once classes: the sequential
// class has its duplicates measured, and the approximate class hands out
// repeated estimates by design (its violations are out-of-bracket values,
// counted in Violations above).
func TestVerifyClaimedProperties(t *testing.T) {
	for _, algo := range registry.Names() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			res := verifiedRun(t, algo, 16, 400, 1)
			v := res.Verification
			if v.Ops+v.Missing != res.Ops {
				t.Fatalf("verification covered %d+%d ops, run completed %d", v.Ops, v.Missing, res.Ops)
			}
			if v.Violations != 0 {
				t.Fatalf("%s violated its claimed %s property %d times (first: %s)",
					algo, v.Property, v.Violations, v.First)
			}
			if v.Property != "sequential" && v.Epsilon == 0 && (v.Duplicates != 0 || v.Gaps != 0) {
				t.Fatalf("%s (%s): %d duplicates, %d gaps", algo, v.Property, v.Duplicates, v.Gaps)
			}
		})
	}
}

// TestVerifyTokenringDuplicates: under tight concurrent load the token ring
// hands out duplicate values — the headline measurement of the
// sequential-only class (the acceptance behavior of loadgen -verify).
func TestVerifyTokenringDuplicates(t *testing.T) {
	res := verifiedRun(t, "tokenring", 12, 400, 1)
	v := res.Verification
	if v.Property != "sequential" {
		t.Fatalf("tokenring claims %q, want sequential", v.Property)
	}
	if v.Duplicates == 0 {
		t.Fatal("tokenring produced no duplicate values under concurrency")
	}
	if v.Violations != 0 {
		t.Fatalf("duplicates counted as violations for a sequential-only protocol: %+v", v)
	}
}

// TestVerifyLinearizableOpenLoop: the linearizable class stays clean even
// past the saturation knee on an open-loop rate ramp.
func TestVerifyLinearizableOpenLoop(t *testing.T) {
	for _, algo := range []string{"central", "ctree", "combining"} {
		c, err := registry.NewWith(algo, 12, registry.Concurrent(sim.WithServiceTime(1)))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New("ramprate", workload.Config{N: c.N(), Ops: 400, Seed: 2, RateFrom: 0.05, RateTo: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, gen, Config{Mode: Open, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		v := res.Verification
		if v == nil || v.Property != "linearizable" {
			t.Fatalf("%s: verification = %+v", algo, v)
		}
		if v.Violations != 0 {
			t.Fatalf("%s: %d violations under overload (first: %s)", algo, v.Violations, v.First)
		}
	}
}

// TestRunWithoutVerifyDrainsOpValues is the regression test for the
// per-op value leak: counter.Ops records every completed operation's value
// until someone consumes it, and with Config.Verify off nobody did — an
// unbounded run accumulated one map entry per operation. The drivers must
// read-and-discard each value on completion instead.
func TestRunWithoutVerifyDrainsOpValues(t *testing.T) {
	for _, mode := range []Mode{Closed, Open} {
		// Count per-op value reads, standing in for counter.Ops's values
		// table: each Value call is one consumed (and freed) entry.
		m, err := registry.NewMachine("central", 8, registry.Concurrent())
		if err != nil {
			t.Fatal(err)
		}
		reads, value := 0, m.Value
		m.Value = func(id sim.OpID) (int, bool) {
			reads++
			return value(id)
		}
		gen, err := workload.New("uniform", workload.Config{N: 8, Ops: 60, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(counter.OnSim(m), gen, Config{Mode: mode}); err != nil {
			t.Fatal(err)
		}
		if reads != 60 {
			t.Fatalf("%v: %d of 60 op values drained — the rest leak in counter.Ops", mode, reads)
		}
	}
}
