package counter_test

import (
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

func TestRunSequenceRecordsOpIDs(t *testing.T) {
	c := counter.OnSim(central.NewMachine(4))
	var rec trace.Recorder
	c.Net().OnDeliver(rec.Record)
	res, err := counter.RunSequence(c, counter.SequentialOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OpIDs) != 4 || len(res.Values) != 4 {
		t.Fatalf("result shape wrong: %+v", res)
	}
	for i, id := range res.OpIDs {
		st := c.Net().OpStats(id)
		if st == nil {
			t.Fatalf("op %d: no stats for id %d", i, id)
		}
		if st.Initiator != res.Order[i] {
			t.Fatalf("op %d: initiator %v, want %v", i, st.Initiator, res.Order[i])
		}
		if d := rec.DAG(id); d == nil || d.Validate() != nil || int64(d.Messages()) != st.Messages {
			t.Fatalf("op %d: DAG %v does not resolve from its id", i, d)
		}
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
