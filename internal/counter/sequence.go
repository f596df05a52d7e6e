package counter

import (
	"fmt"

	"distcount/internal/rng"
	"distcount/internal/sim"
)

// RunResult records one executed operation sequence.
type RunResult struct {
	// Order is the executed initiator sequence.
	Order []sim.ProcID
	// Values[i] is the counter value returned to Order[i].
	Values []int
	// OpIDs[i] is the simulator operation id of the ith operation,
	// resolvable to OpStats (participants, message counts) and, when the
	// network had an OnDeliver recorder, to a DAG.
	OpIDs []sim.OpID
}

// RunSequence executes the operations in order, sequentially (each runs to
// quiescence before the next starts, per the paper's model). It needs the
// counter's simulated network to number the operations, so a counter on
// the rt backend is an error.
func RunSequence(c Counter, order []sim.ProcID) (*RunResult, error) {
	net := c.Net()
	if net == nil {
		return nil, fmt.Errorf("counter %q has no simulated network: run sequences on the sim backend", c.Name())
	}
	res := &RunResult{
		Order:  append([]sim.ProcID(nil), order...),
		Values: make([]int, 0, len(order)),
		OpIDs:  make([]sim.OpID, 0, len(order)),
	}
	for i, p := range order {
		before := net.Ops()
		v, err := c.Inc(p)
		if err != nil {
			return nil, fmt.Errorf("counter %q: op %d by %v: %w", c.Name(), i, p, err)
		}
		res.Values = append(res.Values, v)
		// The counter performed exactly one operation; its id is the next
		// one after `before`. Implementations start exactly one op per Inc;
		// this is asserted here.
		if net.Ops() != before+1 {
			return nil, fmt.Errorf("counter %q: Inc started %d ops, want 1", c.Name(), net.Ops()-before)
		}
		res.OpIDs = append(res.OpIDs, sim.OpID(before+1))
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
