package verify

import (
	"encoding/json"
	"strings"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// seqHistory builds a non-overlapping history where op i runs in
// [10i, 10i+5] and returns value i — the exact sequential execution, which
// every guarantee must accept.
func seqHistory(n int) []TimedValue {
	vals := make([]TimedValue, n)
	for i := range vals {
		vals[i] = TimedValue{Op: sim.OpID(i + 1), Value: i, Start: int64(10 * i), End: int64(10*i + 5)}
	}
	return vals
}

// TestApproximateAcceptsExactValues: a history of exact sequential values
// satisfies any ε, including a very tight one.
func TestApproximateAcceptsExactValues(t *testing.T) {
	rep := Evaluate(counter.Approx(0.001), seqHistory(100), 0)
	if rep.Violations != 0 || rep.OutOfBound != 0 {
		t.Fatalf("exact values violated approximate(0.001): %+v", rep)
	}
	if rep.Property != "approximate(0.001)" {
		t.Fatalf("property = %q, want approximate(0.001)", rep.Property)
	}
	if rep.Epsilon != 0.001 {
		t.Fatalf("epsilon = %v, want 0.001", rep.Epsilon)
	}
	if rep.MaxRelError != 0 {
		t.Fatalf("max rel error = %v for exact values", rep.MaxRelError)
	}
}

// TestApproximateBoundaryPasses: a value sitting exactly on the (1-ε)·lo
// edge of the bound is in bound — the claim is inclusive, and float
// rounding must not flip it.
func TestApproximateBoundaryPasses(t *testing.T) {
	const eps = 0.05
	vals := seqHistory(200)
	// Op 200 (lo = 199 completed before it): hand it exactly
	// ceil((1-ε)·199) = 190 — and also check 189 fails below, so the
	// boundary really is where it should be.
	vals[199].Value = 190 // (1-0.05)*199 = 189.05, so 190 is the smallest passing integer
	rep := Evaluate(counter.Approx(eps), vals, 0)
	if rep.OutOfBound != 0 {
		t.Fatalf("boundary value rejected: %+v", rep)
	}
}

// TestApproximateEpsilonPlusDeltaFails: a value just beyond the claimed
// bound is a violation, and the report localizes it.
func TestApproximateEpsilonPlusDeltaFails(t *testing.T) {
	const eps = 0.05
	vals := seqHistory(200)
	vals[199].Value = 189 // below (1-0.05)*199 = 189.05
	rep := Evaluate(counter.Approx(eps), vals, 0)
	if rep.OutOfBound != 1 || rep.Violations != 1 {
		t.Fatalf("out-of-bound value not flagged: %+v", rep)
	}
	if rep.MaxRelError <= 0 {
		t.Fatalf("max rel error not measured: %+v", rep)
	}
	if !strings.Contains(rep.First, "outside") {
		t.Fatalf("first violation not described: %q", rep.First)
	}
}

// TestApproximateOverestimateFails: the bound is two-sided — a value above
// (1+ε)·hi (more increments than ever started) is a violation too.
func TestApproximateOverestimateFails(t *testing.T) {
	vals := seqHistory(100)
	vals[10].Value = 1000
	rep := Evaluate(counter.Approx(0.25), vals, 0)
	if rep.OutOfBound != 1 {
		t.Fatalf("overestimate not flagged: %+v", rep)
	}
}

// TestApproximateConcurrencyWidensBracket: with all operations overlapping,
// any value in [0, n-1] is consistent with some exact execution, so even
// ε=0 accepts values an exact check would reject.
func TestApproximateConcurrencyWidensBracket(t *testing.T) {
	vals := []TimedValue{
		{Op: 1, Value: 3, Start: 0, End: 100},
		{Op: 2, Value: 3, Start: 0, End: 100},
		{Op: 3, Value: 0, Start: 0, End: 100},
		{Op: 4, Value: 2, Start: 0, End: 100},
	}
	rep := Evaluate(counter.Approx(0.01), vals, 0)
	if rep.OutOfBound != 0 || rep.Violations != 0 {
		t.Fatalf("concurrent bracket too narrow: %+v", rep)
	}
	// Duplicates remain *measured* — they are simply not violations.
	if rep.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1 (measured, not asserted)", rep.Duplicates)
	}
}

// TestApproximateMissingStillViolates: a completed operation without a
// value is a protocol bug under every guarantee, approximate included.
func TestApproximateMissingStillViolates(t *testing.T) {
	rep := Evaluate(counter.Approx(0.25), seqHistory(10), 2)
	if rep.Violations != 2 || rep.Missing != 2 {
		t.Fatalf("missing values not violations: %+v", rep)
	}
}

// TestExactGuaranteeReportUnchanged: wrapping an exact level in a
// Guarantee is a no-op refactor — the report must serialize byte-
// identically to the pre-Guarantee schema: same property string, and none
// of the approximate-only fields present in the JSON.
func TestExactGuaranteeReportUnchanged(t *testing.T) {
	for _, level := range []counter.Consistency{counter.SequentialOnly, counter.Quiescent, counter.Linearizable} {
		rep := Evaluate(counter.Exact(level), seqHistory(50), 0)
		if rep.Property != level.String() {
			t.Fatalf("property = %q, want %q", rep.Property, level.String())
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"epsilon", "out_of_bound", "max_rel_error"} {
			if strings.Contains(string(b), field) {
				t.Fatalf("exact report leaked approximate field %q: %s", field, b)
			}
		}
	}
}

// TestGuaranteeString pins the report rendering of the contract.
func TestGuaranteeString(t *testing.T) {
	cases := []struct {
		g    counter.Guarantee
		want string
	}{
		{counter.Exact(counter.Linearizable), "linearizable"},
		{counter.Exact(counter.Quiescent), "quiescent"},
		{counter.Exact(counter.SequentialOnly), "sequential"},
		{counter.Approx(0.05), "approximate(0.05)"},
		{counter.Approx(0.25), "approximate(0.25)"},
		{counter.Approx(0.1), "approximate(0.1)"},
	}
	for _, tc := range cases {
		if got := tc.g.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.g, got, tc.want)
		}
	}
}

// TestEvaluateKeyedApproximateShard: an approximate shard participates in
// keyed verification with the ε bound at shard level, and its repeated
// values within a key are not flagged as key duplicates.
func TestEvaluateKeyedApproximateShard(t *testing.T) {
	vals := []keyedOp{
		kv(1, 0, 0, 0, 0, 0, 5),
		kv(2, 0, 1, 0, 0, 0, 5),
		// Two concurrent key-0 operations share the stale estimate 2 —
		// in bound (bracket [2, 3] at ε=0.25), and legitimately equal.
		kv(3, 0, 0, 0, 2, 10, 15),
		kv(6, 0, 0, 0, 2, 10, 15),
		kv(4, 1, 2, 0, 0, 0, 5),
		kv(5, 1, 2, 0, 1, 10, 15),
	}
	rep := evaluateKeyed(
		[]counter.Guarantee{counter.Approx(0.25), counter.Exact(counter.Linearizable)},
		[]string{"css-sample", "central"}, vals, 0, FaultContext{})
	if rep.Summary.Violations != 0 {
		t.Fatalf("clean mixed run reported violations: %+v", rep.Summary)
	}
	if rep.KeyDuplicates != 0 {
		t.Fatalf("approximate shard's shared values flagged as key duplicates: %+v", rep)
	}
	if rep.Summary.Property != "mixed/sharded" {
		t.Fatalf("property = %q, want mixed/sharded", rep.Summary.Property)
	}
	if rep.Shards[0].Property != "approximate(0.25)" {
		t.Fatalf("shard 0 property = %q", rep.Shards[0].Property)
	}
}
