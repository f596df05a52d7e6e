package sim

import (
	"testing"

	"distcount/internal/rng"
)

func testRand() *rng.Source { return rng.New(42) }

type kindedPayload string

func (k kindedPayload) Kind() string { return string(k) }

func TestStallKindLatencyStallsListedOccurrences(t *testing.T) {
	lat := NewStallKindLatency(50, map[string][]int{"exit": {0, 2}})
	exit := Message{Payload: kindedPayload("exit")}
	other := Message{Payload: kindedPayload("token")}

	if d := lat.Delay(exit, nil); d != 50 { // occurrence 0: stalled
		t.Fatalf("exit#0 delay = %d, want 50", d)
	}
	if d := lat.Delay(exit, nil); d != 1 { // occurrence 1: normal
		t.Fatalf("exit#1 delay = %d, want 1", d)
	}
	if d := lat.Delay(exit, nil); d != 50 { // occurrence 2: stalled
		t.Fatalf("exit#2 delay = %d, want 50", d)
	}
	if d := lat.Delay(exit, nil); d != 1 {
		t.Fatalf("exit#3 delay = %d, want 1", d)
	}
	for i := 0; i < 5; i++ {
		if d := lat.Delay(other, nil); d != 1 {
			t.Fatalf("non-stalled kind delayed: %d", d)
		}
	}
}

func TestStallKindLatencyNilPayload(t *testing.T) {
	lat := NewStallKindLatency(50, map[string][]int{"exit": {0}})
	if d := lat.Delay(Message{}, nil); d != 1 {
		t.Fatalf("nil payload delay = %d, want 1", d)
	}
}

func TestUniformLatencyClamps(t *testing.T) {
	// Min below 1 clamps to 1; Max below Min collapses to Min.
	r := testRand()
	l := UniformLatency{Min: -3, Max: 0}
	for i := 0; i < 20; i++ {
		if d := l.Delay(Message{}, r); d != 1 {
			t.Fatalf("degenerate uniform delay = %d, want 1", d)
		}
	}
	l2 := UniformLatency{Min: 4, Max: 2}
	if d := l2.Delay(Message{}, r); d != 4 {
		t.Fatalf("inverted uniform delay = %d, want 4", d)
	}
}

func TestUniformLatencyRange(t *testing.T) {
	r := testRand()
	l := UniformLatency{Min: 2, Max: 7}
	seen := make(map[int64]bool)
	for i := 0; i < 500; i++ {
		d := l.Delay(Message{}, r)
		if d < 2 || d > 7 {
			t.Fatalf("delay %d out of [2,7]", d)
		}
		seen[d] = true
	}
	for want := int64(2); want <= 7; want++ {
		if !seen[want] {
			t.Fatalf("delay %d never drawn", want)
		}
	}
}

func TestSkewLatencyLowMax(t *testing.T) {
	l := SkewLatency{Max: 1}
	if d := l.Delay(Message{From: 1, To: 2}, nil); d != 1 {
		t.Fatalf("skew with max 1 = %d", d)
	}
}

// countingLatency delegates to a model and counts how often it was asked.
type countingLatency struct {
	inner Latency
	calls *int
}

func (l countingLatency) Delay(msg Message, r *rng.Source) int64 {
	*l.calls++
	return l.inner.Delay(msg, r)
}

// TestOnlyUnitLatencySkipsDelay: the send path consults the latency model
// for every transmission unless the model is exactly UnitLatency — including
// a foreign model that happens to return 1, a degenerate uniform range, and
// the stateful stall model whose occurrence counting depends on seeing every
// message.
func TestOnlyUnitLatencySkipsDelay(t *testing.T) {
	const sends = 3 // relayProto{hops: 3}: 1→2→3→4
	run := func(t *testing.T, nw *Network) *OpStats {
		t.Helper()
		id := nw.StartOp(1, startRelay)
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		st := nw.OpStats(id)
		if st.Messages != sends {
			t.Fatalf("operation sent %d messages, want %d", st.Messages, sends)
		}
		return st
	}

	t.Run("default", func(t *testing.T) {
		nw := New(8, &relayProto{hops: 3})
		if !nw.unitLatency {
			t.Fatal("default network does not take the UnitLatency fast path")
		}
		if st := run(t, nw); st.DoneAt-st.StartedAt != sends {
			t.Fatalf("unit-latency relay took %d ticks, want %d", st.DoneAt-st.StartedAt, sends)
		}
	})
	t.Run("wrapped-unit", func(t *testing.T) {
		calls := 0
		nw := New(8, &relayProto{hops: 3}, WithLatency(countingLatency{UnitLatency{}, &calls}))
		run(t, nw)
		if calls != sends {
			t.Fatalf("Delay called %d times for %d sends", calls, sends)
		}
	})
	t.Run("uniform", func(t *testing.T) {
		nw := New(8, &relayProto{hops: 3}, WithSeed(7), WithLatency(UniformLatency{Min: 1, Max: 9}))
		st := run(t, nw)
		ref, want := rng.New(7), int64(0)
		for i := 0; i < sends; i++ {
			want += UniformLatency{Min: 1, Max: 9}.Delay(Message{}, ref)
		}
		if got := st.DoneAt - st.StartedAt; got != want {
			t.Fatalf("uniform relay took %d ticks, want the %d of %d seeded draws", got, want, sends)
		}
		if a, b := nw.Rand().Uint64(), ref.Uint64(); a != b {
			t.Fatal("network rng is not exactly one draw per send ahead of its seed")
		}
	})
	t.Run("skew", func(t *testing.T) {
		lat := SkewLatency{Max: 16}
		nw := New(8, &relayProto{hops: 3}, WithLatency(lat))
		st := run(t, nw)
		var want int64
		for from := ProcID(1); from <= sends; from++ {
			want += lat.Delay(Message{From: from, To: from + 1}, nil)
		}
		if got := st.DoneAt - st.StartedAt; got != want || want == sends {
			t.Fatalf("skew relay took %d ticks, want %d (and not the unit %d)", got, want, sends)
		}
	})
	t.Run("stall-kind", func(t *testing.T) {
		lat := NewStallKindLatency(50, map[string][]int{"zero": {1}})
		nw := New(8, &relayProto{hops: 3}, WithLatency(lat))
		st := run(t, nw)
		if lat.seen["zero"] != sends {
			t.Fatalf("stall model saw %d messages, want %d", lat.seen["zero"], sends)
		}
		if got := st.DoneAt - st.StartedAt; got != 1+50+1 {
			t.Fatalf("relay with its second hop stalled took %d ticks, want 52", got)
		}
	})
}

// TestCloneCarriesLatencyFastPath: a clone keeps both the model and the
// cached decision about it, so original and clone schedule identically.
func TestCloneCarriesLatencyFastPath(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		unit bool
		hop  int64
	}{
		{"unit", nil, true, 1},
		{"uniform", []Option{WithLatency(UniformLatency{Min: 4, Max: 4})}, false, 4},
	} {
		nw := New(8, &cloneableRelay{relayProto{hops: 3}}, tc.opts...)
		cl, err := nw.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if nw.unitLatency != tc.unit || cl.unitLatency != tc.unit {
			t.Fatalf("%s: fast path original=%v clone=%v, want %v", tc.name, nw.unitLatency, cl.unitLatency, tc.unit)
		}
		for _, net := range []*Network{nw, cl} {
			id := net.StartOp(1, startRelay)
			if err := net.Run(); err != nil {
				t.Fatal(err)
			}
			if st := net.OpStats(id); st.DoneAt-st.StartedAt != 3*tc.hop {
				t.Fatalf("%s: relay took %d ticks, want %d", tc.name, st.DoneAt-st.StartedAt, 3*tc.hop)
			}
		}
	}
}

type cloneableRelay struct{ relayProto }

func (c *cloneableRelay) CloneProtocol() Protocol { cp := *c; return &cp }
