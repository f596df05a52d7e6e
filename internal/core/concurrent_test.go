package core

import (
	"fmt"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// Tests of the concurrent (pipelined) mode outside the paper's sequential
// model: the counter's Machine on a simulated network, operations started
// with Start and read back by id with OpValue. The lemma instrumentation
// stays on the sequential Tree handle.

// pipelined starts one operation per processor of c at starts[p-1], runs the
// network to quiescence and checks that the values handed out are exactly
// 0..n-1.
func pipelined(t *testing.T, c *counter.Sim, starts []int64) {
	t.Helper()
	ids := make([]sim.OpID, len(starts))
	for i, at := range starts {
		ids[i] = c.Start(at, sim.ProcID(i+1))
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(ids))
	for i, id := range ids {
		v, ok := c.OpValue(id)
		if !ok {
			t.Fatalf("processor %d got no reply", i+1)
		}
		if v < 0 || v >= len(ids) || seen[v] {
			t.Fatalf("processor %d got invalid/duplicate value %d", i+1, v)
		}
		seen[v] = true
	}
}

func TestConcurrentPipelinedCounting(t *testing.T) {
	m := NewMachine(SizeForK(2))
	pipelined(t, counter.OnSim(m), make([]int64, m.N))
	if got := m.Proto.(*proto).root.(*counterState).val; got != m.N {
		t.Fatalf("final value %d, want %d", got, m.N)
	}
}

func TestConcurrentPipelinedIsFasterThanSequential(t *testing.T) {
	seq := New(2)
	for p := 1; p <= seq.N(); p++ {
		if _, err := seq.Inc(sim.ProcID(p)); err != nil {
			t.Fatal(err)
		}
	}
	conc := counter.OnSim(NewMachine(seq.N()))
	pipelined(t, conc, make([]int64, conc.N()))
	if conc.Net().Now() >= seq.Net().Now() {
		t.Fatalf("pipelining not faster: %d vs %d ticks", conc.Net().Now(), seq.Net().Now())
	}
}

func TestConcurrentUnderReordering(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := counter.OnSim(NewMachine(SizeForK(2)),
				sim.WithSeed(seed), sim.WithLatency(sim.UniformLatency{Min: 1, Max: 11}))
			starts := make([]int64, c.N())
			for i := range starts {
				starts[i] = int64(i + 1)
			}
			pipelined(t, c, starts)
		})
	}
}

func TestPayloadKinds(t *testing.T) {
	kinds := map[string]sim.Payload{
		"inc-from":       incPayload{},
		"value":          valuePayload{},
		"handoff-job":    handoffJobPayload{},
		"handoff-parent": handoffParentPayload{},
		"handoff-child":  handoffChildPayload{},
		"new-id":         newIDPayload{},
	}
	for want, pl := range kinds {
		if got := pl.Kind(); got != want {
			t.Errorf("Kind() = %q, want %q", got, want)
		}
	}
}

func TestStateAccessor(t *testing.T) {
	tr := NewTree(2, &counterState{})
	if _, ok := tr.State().(*counterState); !ok {
		t.Fatalf("State() = %T", tr.State())
	}
}

func TestNewIDBitsLeafTarget(t *testing.T) {
	// The leaf marker (-1) must not break size accounting.
	pl := newIDPayload{Target: leafTarget, Changed: 3, NewProc: 7}
	if pl.Bits() <= 0 {
		t.Fatalf("Bits() = %d", pl.Bits())
	}
}
