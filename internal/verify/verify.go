// Package verify checks the correctness properties every distributed
// counter must satisfy in the paper's sequential model, and the Hot Spot
// Lemma that any correct counter must obey.
//
// Sequential correctness: over any operation sequence, the i-th operation
// (0-based) must return exactly i — test-and-increment semantics starting
// from val = 0. In particular, over the canonical workload of n operations,
// the returned values are a bijection onto {0, ..., n-1}.
//
// Hot Spot Lemma (paper, Section 2): if p and q increment the counter in
// direct succession then I_p ∩ I_q ≠ ∅, where I_p is the set of processors
// sending or receiving a message during p's operation.
package verify

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// Sequential checks test-and-increment semantics of a run that started with
// a fresh counter: returned values must be 0, 1, 2, ... in execution order.
func Sequential(res *counter.RunResult) error {
	for i, v := range res.Values {
		if v != i {
			return fmt.Errorf("verify: op %d (initiator %v) returned %d, want %d",
				i, res.Order[i], v, i)
		}
	}
	return nil
}

// Bijection checks that a run's returned values are exactly {0..len-1} in
// some order (the weaker property that suffices when a run did not start
// from a fresh counter is not needed here; all drivers start fresh).
func Bijection(res *counter.RunResult) error {
	seen := make([]bool, len(res.Values))
	for i, v := range res.Values {
		if v < 0 || v >= len(res.Values) {
			return fmt.Errorf("verify: op %d returned %d, out of range [0,%d)", i, v, len(res.Values))
		}
		if seen[v] {
			return fmt.Errorf("verify: value %d returned twice (second time by op %d)", v, i)
		}
		seen[v] = true
	}
	return nil
}

// HotSpot checks the Hot Spot Lemma over a run: every two operations
// executed in direct succession have intersecting participant sets, i.e.
// every count in res.Shared is positive. A result whose Shared does not
// cover every pair (one not built by counter.RunSequence) is an error.
func HotSpot(res *counter.RunResult) error {
	if len(res.Shared) != max(len(res.Values)-1, 0) {
		return fmt.Errorf("verify: %d participant intersections for %d operations", len(res.Shared), len(res.Values))
	}
	for i, s := range res.Shared {
		if s == 0 {
			return fmt.Errorf("verify: hot spot violation: op %d (initiator %v) and op %d (initiator %v) share no processor",
				i, res.Order[i], i+1, res.Order[i+1])
		}
	}
	return nil
}

// Counter runs the canonical workload (each processor increments exactly
// once, in the given order) on a fresh counter and verifies sequential
// semantics plus the Hot Spot Lemma. It is the one-call conformance check
// used by every implementation's tests.
func Counter(c counter.Counter, order []sim.ProcID) error {
	res, err := counter.RunSequence(c, order)
	if err != nil {
		return err
	}
	if err := Sequential(res); err != nil {
		return err
	}
	if err := Bijection(res); err != nil {
		return err
	}
	return HotSpot(res)
}
