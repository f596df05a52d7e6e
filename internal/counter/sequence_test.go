package counter_test

import (
	"slices"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counters/central"
	"distcount/internal/sim"
	"distcount/internal/trace"
)

func TestSequentialOrder(t *testing.T) {
	got := counter.SequentialOrder(4)
	want := []sim.ProcID{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SequentialOrder(4) = %v", got)
		}
	}
}

func TestReverseOrder(t *testing.T) {
	got := counter.ReverseOrder(3)
	want := []sim.ProcID{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReverseOrder(3) = %v", got)
		}
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	got := counter.RandomOrder(20, 5)
	seen := make(map[sim.ProcID]bool)
	for _, p := range got {
		if p < 1 || p > 20 || seen[p] {
			t.Fatalf("RandomOrder not a permutation: %v", got)
		}
		seen[p] = true
	}
	// Seeded determinism.
	again := counter.RandomOrder(20, 5)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("RandomOrder not deterministic per seed")
		}
	}
	other := counter.RandomOrder(20, 6)
	same := true
	for i := range got {
		if got[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical orders")
	}
}

func TestRepeatedOrder(t *testing.T) {
	got := counter.RepeatedOrder(3, 7)
	for _, p := range got {
		if p != 7 {
			t.Fatalf("RepeatedOrder = %v", got)
		}
	}
}

// TestRunSequenceCountsSharedParticipants: on the central counter every
// operation's participant set is its initiator and the center, processor 1,
// so consecutive operations share exactly the center — or both processors
// when one initiator runs twice in a row. RunSequence holds the OnDeliver hook for the run and leaves none
// behind: a recorder installed before it sees nothing.
func TestRunSequenceCountsSharedParticipants(t *testing.T) {
	c := counter.OnSim(central.NewMachine(4))
	var before trace.Recorder
	c.Net().OnDeliver(before.Record)
	res, err := counter.RunSequence(c, []sim.ProcID{2, 3, 3, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 1, 1}; !slices.Equal(res.Shared, want) || len(res.Values) != 5 {
		t.Fatalf("Shared = %v over %d values, want %v over 5", res.Shared, len(res.Values), want)
	}
	if before.DAG(1) != nil {
		t.Fatal("the hook installed before RunSequence saw its operations")
	}
	if _, err := c.Inc(2); err != nil {
		t.Fatal(err)
	}
	if before.DAG(6) != nil {
		t.Fatal("RunSequence left a hook installed")
	}
}

func TestRunSequenceCopiesOrder(t *testing.T) {
	c := counter.OnSim(central.NewMachine(2))
	order := []sim.ProcID{1, 2}
	res, err := counter.RunSequence(c, order)
	if err != nil {
		t.Fatal(err)
	}
	order[0] = 2 // mutate the caller's slice
	if res.Order[0] != 1 {
		t.Fatal("RunSequence aliased the caller's order slice")
	}
}
