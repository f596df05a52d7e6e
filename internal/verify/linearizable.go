package verify

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// Concurrent-execution checks. The paper's model is sequential, but its
// related work isn't: Herlihy, Shavit & Waarts ("Linearizable counting
// networks", cited as [HSW]) study exactly the gap these checks measure —
// a concurrent counter can hand out each value exactly once (quiescent
// consistency) yet still allow an operation that finished earlier to
// receive a larger value than one that started later, which breaks
// linearizability.

// TimedValue is one completed counter operation of a concurrent run.
type TimedValue struct {
	Op    sim.OpID
	Value int
	// Start and End are the operation's initiation time and the time of
	// its last event (for a counter: when the value arrived).
	Start, End int64
}

// CollectTimedValues pairs per-operation values with the simulator's
// operation timing. values[i] belongs to ops[i].
func CollectTimedValues(net *sim.Network, ops []sim.OpID, values []int) ([]TimedValue, error) {
	if len(ops) != len(values) {
		return nil, fmt.Errorf("verify: %d ops but %d values", len(ops), len(values))
	}
	out := make([]TimedValue, len(ops))
	for i, id := range ops {
		st := net.OpStats(id)
		if st == nil {
			return nil, fmt.Errorf("verify: missing stats for op %d (operation forgotten?)", id)
		}
		out[i] = TimedValue{Op: id, Value: values[i], Start: st.StartedAt, End: st.DoneAt}
	}
	return out, nil
}

// QuiescentConsistent checks that the values handed out by a concurrent run
// are exactly {0, ..., len-1}: no duplicates, no gaps. Counting networks
// and diffracting trees guarantee this.
func QuiescentConsistent(vals []TimedValue) error {
	return firstViolation(counter.Quiescent, "quiescent consistency", vals)
}

// Linearizable checks the real-time order condition for counters: if
// operation a completed before operation b started, then a's value must be
// smaller — there must exist a linearization point between invocation and
// response consistent with the values. For a counter this condition
// (together with QuiescentConsistent) is equivalent to linearizability.
func Linearizable(vals []TimedValue) error {
	return firstViolation(counter.Linearizable, "linearizability", vals)
}

// firstViolation is the boolean view of Evaluate: nil exactly when the
// report at the given level counts no violation, otherwise the first one.
func firstViolation(level counter.Consistency, what string, vals []TimedValue) error {
	if rep := Evaluate(counter.Exact(level), vals, 0); rep.Violations > 0 {
		return fmt.Errorf("verify: %s violation: %s", what, rep.First)
	}
	return nil
}
