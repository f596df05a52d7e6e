// Package countertest provides the shared conformance suite run by every
// counter implementation's tests: sequential test-and-increment semantics
// over several operation orders, the Hot Spot Lemma, determinism, and clone
// independence.
package countertest

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

// Factory builds a fresh counter for (at least) n processors.
type Factory func(n int) counter.Counter

// Conformance runs the full suite against counters built by factory for the
// given processor counts.
func Conformance(t *testing.T, factory Factory, sizes ...int) {
	t.Helper()
	for _, n := range sizes {
		n := n
		c := factory(n)
		orders := map[string][]sim.ProcID{
			"sequential": counter.SequentialOrder(c.N()),
			"reverse":    counter.ReverseOrder(c.N()),
			"random":     counter.RandomOrder(c.N(), 0xdead),
		}
		for name, order := range orders {
			c := factory(n)
			t.Run(testName(c, n, name), func(t *testing.T) {
				if err := verify.Counter(c, order); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Run(testName(c, n, "repeated-initiator"), func(t *testing.T) {
			c := factory(n)
			// Non-canonical workload: one processor increments c.N() times.
			// Correctness must still hold (the lower bound does not, which
			// is exactly why the paper restricts the workload).
			res, err := counter.RunSequence(c, counter.RepeatedOrder(min(c.N(), 16), 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Sequential(res); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(testName(c, n, "determinism"), func(t *testing.T) {
			a, b := factory(n), factory(n)
			order := counter.RandomOrder(a.N(), 7)
			ra, err := counter.RunSequence(a, order)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := counter.RunSequence(b, order)
			if err != nil {
				t.Fatal(err)
			}
			if a.Net().MessagesTotal() != b.Net().MessagesTotal() {
				t.Fatalf("nondeterministic message totals: %d vs %d",
					a.Net().MessagesTotal(), b.Net().MessagesTotal())
			}
			for i := range ra.Values {
				if ra.Values[i] != rb.Values[i] {
					t.Fatalf("nondeterministic value at op %d: %d vs %d", i, ra.Values[i], rb.Values[i])
				}
			}
		})
	}
}

// CloneIndependence checks that a cloned counter evolves independently of
// the original: after cloning mid-sequence, finishing the sequence on both
// yields identical values, and running extra operations on the clone does
// not affect the original's loads.
func CloneIndependence(t *testing.T, factory Factory, n int) {
	t.Helper()
	c := factory(n)
	cl, ok := c.(counter.Cloneable)
	if !ok {
		t.Fatalf("counter %q is not Cloneable", c.Name())
	}
	order := counter.SequentialOrder(c.N())
	half := len(order) / 2
	if _, err := counter.RunSequence(c, order[:half]); err != nil {
		t.Fatal(err)
	}

	copied, err := cl.Clone()
	if err != nil {
		t.Fatalf("clone: %v", err)
	}

	origLoadBefore := c.Net().MessagesTotal()
	// Drive the clone to completion.
	resClone, err := counter.RunSequence(copied, order[half:])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range resClone.Values {
		if want := half + i; v != want {
			t.Fatalf("clone op %d returned %d, want %d", i, v, want)
		}
	}
	if got := c.Net().MessagesTotal(); got != origLoadBefore {
		t.Fatalf("running the clone changed the original's message total: %d -> %d", origLoadBefore, got)
	}

	// The original must be able to finish identically.
	resOrig, err := counter.RunSequence(c, order[half:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range resOrig.Values {
		if resOrig.Values[i] != resClone.Values[i] {
			t.Fatalf("original and clone diverged at op %d: %d vs %d",
				i, resOrig.Values[i], resClone.Values[i])
		}
	}
}

func testName(c counter.Counter, n int, suffix string) string {
	return c.Name() + "/n=" + itoa(n) + "/" + suffix
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
