package core

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// TestMessagesAreLogarithmic verifies the paper's size claim: "we were able
// to keep the length of messages as short as O(log n) bits". Every payload
// carries at most three identifiers plus a tag and a value, so the largest
// message over a full run must stay within a small multiple of log2(n).
func TestMessagesAreLogarithmic(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		c := New(k)
		if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
			t.Fatal(err)
		}
		logN := sim.BitsFor(c.N())
		got := c.Net().MaxMessageBits()
		if got == 0 {
			t.Fatalf("k=%d: no size accounting", k)
		}
		// 3 identifiers + value + tag, each identifier <= logN + slack for
		// node indices (there are ~n/(k-1) inner nodes).
		budget := 4*logN + tagBits + 8
		if got > budget {
			t.Fatalf("k=%d: max message %d bits exceeds O(log n) budget %d (log2 n = %d)",
				k, got, budget, logN)
		}
		t.Logf("k=%d n=%d: max message %d bits (log2 n = %d), total %d bits",
			k, c.N(), got, logN, c.Net().BitsTotal())
	}
}

// TestBitsGrowLogarithmically: the max message size across k=2..4 grows
// like log n, not like n.
func TestBitsGrowLogarithmically(t *testing.T) {
	maxBits := make([]int, 0, 3)
	ns := make([]int, 0, 3)
	for _, k := range []int{2, 3, 4} {
		c := New(k)
		if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
			t.Fatal(err)
		}
		maxBits = append(maxBits, c.Net().MaxMessageBits())
		ns = append(ns, c.N())
	}
	for i := 1; i < len(maxBits); i++ {
		nGrowth := float64(ns[i]) / float64(ns[i-1])
		bitGrowth := float64(maxBits[i]) / float64(maxBits[i-1])
		if bitGrowth > nGrowth/2 {
			t.Fatalf("message size grew %vx while n grew %vx: not logarithmic (%v for %v)",
				bitGrowth, nGrowth, maxBits, ns)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ v, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := sim.BitsFor(c.v); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBitsForPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sim.BitsFor(-1)
}

func TestValueBits(t *testing.T) {
	if got := valueBits(nil); got != 0 {
		t.Errorf("nil = %d", got)
	}
	if got := valueBits(true); got != 1 {
		t.Errorf("bool = %d", got)
	}
	if got := valueBits(7); got != 3 {
		t.Errorf("int 7 = %d", got)
	}
	if got := valueBits(-7); got != 3 {
		t.Errorf("int -7 = %d", got)
	}
	if got := valueBits("str"); got != 64 {
		t.Errorf("default = %d", got)
	}
	if got := valueBits(sizedValue{}); got != 5 {
		t.Errorf("BitSized = %d", got)
	}
}

type sizedValue struct{}

func (sizedValue) Bits() int { return 5 }

// TestWordBitsPinned: an inc travels as a kind value plus the message word
// (incWord), sized from that word, and the figures below are what the same
// runs accounted when every inc was a boxed incPayload — so moving the data
// into the word changed no accounted bit, no message and no forwarding hop —
// plus the counter value each root handoff carries, charged since (11 bits
// of 980 at k = 2).
// Three sequential canonical rounds (retirements and exhausted pools
// included) and three concurrent rounds under reordering latencies, where
// incs addressed to retired processors are forwarded with their word.
func TestWordBitsPinned(t *testing.T) {
	type figures struct {
		bits            int64
		maxBits         int
		msgs, forwarded int64
	}
	read := func(c *counter.Sim) figures {
		return figures{c.Net().BitsTotal(), c.Net().MaxMessageBits(), c.MessagesTotal(),
			c.Net().Protocol().(*proto).totals().Forwarded}
	}
	seq := map[int]figures{
		2: {980, 11, 132, 4},
		3: {20560, 19, 1811, 10},
		4: {472008, 29, 28638, 132},
	}
	for k, want := range seq {
		c := New(k)
		for range 3 {
			if _, err := counter.RunSequence(c.Sim, counter.SequentialOrder(c.N())); err != nil {
				t.Fatal(err)
			}
		}
		if got := read(c.Sim); got != want {
			t.Errorf("sequential k=%d: got %+v, want %+v", k, got, want)
		}
	}
	// The concurrent k = 3 figures are not the boxed runs': they were taken
	// once the handoff carried the role, since a successor holds what
	// reaches it before its job message rather than serving it.
	conc := map[int]figures{
		2: {1070, 11, 145, 17},
		3: {35495, 19, 3295, 1494},
	}
	for k, want := range conc {
		c := counter.OnSim(NewMachine(SizeForK(k)),
			sim.WithSeed(3), sim.WithLatency(sim.UniformLatency{Min: 1, Max: 11}))
		for range 3 {
			for i := range c.N() {
				c.Start(c.Net().Now()+int64(i/2), sim.ProcID(i+1))
			}
			if err := c.Net().Run(); err != nil {
				t.Fatal(err)
			}
		}
		if got := read(c); got != want {
			t.Errorf("concurrent k=%d: got %+v, want %+v", k, got, want)
		}
	}
}
