package counter

import (
	"fmt"
	"sync/atomic"

	"distcount/internal/rng"
	"distcount/internal/sim"
)

// RunResult records one executed operation sequence.
type RunResult struct {
	// Order is the executed initiator sequence.
	Order []sim.ProcID
	// Values[i] is the counter value returned to Order[i].
	Values []int
	// Shared[i] is |I_i ∩ I_{i+1}|, the number of processors taking part in
	// both the ith operation and the next one. An operation's I is the
	// paper's participant set: its initiator and every processor that
	// received one of its messages, read off the network's delivery records.
	Shared []int
}

// RunSequence executes the operations in order, sequentially (each runs to
// quiescence before the next starts, per the paper's model), on either
// backend. It holds the counter's OnDeliver hook for the run (replacing any
// installed before; none is left after).
func RunSequence(c Counter, order []sim.ProcID) (*RunResult, error) {
	res := &RunResult{
		Order:  append([]sim.ProcID(nil), order...),
		Values: make([]int, 0, len(order)),
		Shared: make([]int, max(len(order)-1, 0)),
	}
	// mark[p] is 1 + the index of the latest operation p took part in (0:
	// none yet); operations do not overlap, so one stamp per processor
	// suffices. rt delivers to distinct processors concurrently (never to
	// one), so the stamps need no lock but the running intersection is atomic.
	mark := make([]int, c.N()+1)
	var shared atomic.Int64
	var cur sim.OpID
	i := 0
	c.OnDeliver(func(d sim.Delivery) {
		if d.Op == cur && mark[d.Proc] != i+1 {
			if mark[d.Proc] == i {
				shared.Add(1)
			}
			mark[d.Proc] = i + 1
		}
	})
	defer c.OnDeliver(nil)
	for ; i < len(order); i++ {
		before := c.Ops()
		cur = sim.OpID(before + 1)
		v, err := c.Inc(order[i])
		if err != nil {
			return nil, fmt.Errorf("counter %q: op %d by %v: %w", c.Name(), i, order[i], err)
		}
		if c.Ops() != before+1 {
			return nil, fmt.Errorf("counter %q: Inc started %d ops, want 1", c.Name(), c.Ops()-before)
		}
		res.Values = append(res.Values, v)
		if n := shared.Swap(0); i > 0 {
			res.Shared[i-1] = int(n)
		}
	}
	return res, nil
}

// SequentialOrder returns the canonical workload order 1, 2, ..., n —
// each processor increments exactly once, in id order.
func SequentialOrder(n int) []sim.ProcID {
	out := make([]sim.ProcID, n)
	for i := range out {
		out[i] = sim.ProcID(i + 1)
	}
	return out
}

// ReverseOrder returns n, n-1, ..., 1.
func ReverseOrder(n int) []sim.ProcID {
	out := make([]sim.ProcID, n)
	for i := range out {
		out[i] = sim.ProcID(n - i)
	}
	return out
}

// RandomOrder returns a seeded random permutation of 1..n — the canonical
// workload in arbitrary order.
func RandomOrder(n int, seed uint64) []sim.ProcID {
	r := rng.New(seed)
	perm := r.Perm(n)
	out := make([]sim.ProcID, n)
	for i, v := range perm {
		out[i] = sim.ProcID(v + 1)
	}
	return out
}

// RepeatedOrder returns n operations all initiated by processor p; used by
// tests of the non-canonical single-initiator regime.
func RepeatedOrder(n int, p sim.ProcID) []sim.ProcID {
	out := make([]sim.ProcID, n)
	for i := range out {
		out[i] = p
	}
	return out
}
