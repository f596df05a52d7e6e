package sim

import (
	"testing"
)

// The allocation guards below pin the simulator's headline property: the
// fault-free Send/Step cycle with no OnDeliver hook performs ZERO heap
// allocations once the simulator's reusable structures (event-ring buckets,
// the op table and its free list) are warm. A recording hook allocates
// whatever its recorder keeps, and fault injection's freeze path may
// allocate; neither is on the steady-state benchmark path.

// zeroPayload is an empty payload: boxing a zero-size value into the Payload
// interface costs nothing, so the guard isolates the simulator's own
// allocations from the protocol's.
type zeroPayload struct{}

func (zeroPayload) Kind() string { return "zero" }

// relayProto sends each operation's message on to the next processor,
// hops-many times, exercising Send from inside Deliver.
type relayProto struct{ hops int }

func (rp *relayProto) Deliver(nw Transport, msg Message) {
	if h := int(msg.To); h <= rp.hops {
		nw.Send(ProcID(h%nw.(*Network).N()+1), zeroPayload{})
	}
}

// startRelay is a package-level func value: passing it to StartOp does not
// allocate (a method value or capturing closure per op would).
var startRelay = func(nw Transport, p ProcID) {
	nw.Send(2, zeroPayload{})
}

// TestSendStepAllocFree pins allocs/op at exactly zero for the untraced,
// fault-free start→send→deliver→forget cycle.
func TestSendStepAllocFree(t *testing.T) {
	nw := New(8, &relayProto{hops: 3})
	run := func() {
		id := nw.StartOp(1, startRelay)
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		nw.ForgetOp(id)
	}
	// Warm the ring buckets, op table, and free list.
	for i := 0; i < 64; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("Send/Step cycle allocates %.2f objects per op, want exactly 0", avg)
	}
}

// TestScheduleOpRecyclesRecords pins the free-list property directly: after
// ForgetOp, the next operation start reuses the same *OpStats record.
func TestScheduleOpRecyclesRecords(t *testing.T) {
	nw := New(4, &relayProto{hops: 0})
	id := nw.StartOp(1, startRelay)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.OpStats(id)
	if st == nil {
		t.Fatal("no OpStats for first op")
	}
	nw.ForgetOp(id)
	if nw.OpStats(id) != nil {
		t.Fatal("OpStats survived ForgetOp")
	}
	id2 := nw.StartOp(3, startRelay)
	st2 := nw.OpStats(id2)
	if st2 != st {
		t.Fatalf("second op got a fresh record (%p), want the recycled one (%p)", st2, st)
	}
	if st2.ID != id2 || st2.Initiator != 3 || st2.Messages != 0 {
		t.Fatalf("recycled record not reset: %+v", st2)
	}
	if got := st2.Participants(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("recycled participants = %v, want [3]", got)
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDupAccountingIsExactlyTwiceSingleSend compares a run whose only send
// is duplicated by the fault plan against the identical fault-free run: every
// accounting dimension — sender/receiver loads, message and bit totals,
// per-op message count and max payload size — must come out exactly 2×. The
// duplication branch shares one accounting helper with the primary copy, and
// this is the test that keeps the two from drifting.
func TestDupAccountingIsExactlyTwiceSingleSend(t *testing.T) {
	run := func(opts ...Option) *Network {
		nw := New(4, &relayProto{hops: 0}, opts...)
		nw.StartOp(1, func(tr Transport, p ProcID) {
			tr.Send(2, sizedPayload{bits: 17})
		})
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		return nw
	}
	single := run()
	dup := run(WithFaults(FaultPlan{Dup: 0.999999}))
	if got := dup.FaultStats().Duplicated; got != 1 {
		t.Fatalf("duplication did not fire exactly once: %d", got)
	}

	if s, d := single.MessagesTotal(), dup.MessagesTotal(); d != 2*s {
		t.Fatalf("MessagesTotal: dup %d, want 2×%d", d, s)
	}
	if s, d := single.BitsTotal(), dup.BitsTotal(); d != 2*s {
		t.Fatalf("BitsTotal: dup %d, want 2×%d", d, s)
	}
	if s, d := single.Load(1), dup.Load(1); d != 2*s {
		t.Fatalf("sender load: dup %d, want 2×%d", d, s)
	}
	if s, d := single.Load(2), dup.Load(2); d != 2*s {
		t.Fatalf("receiver load: dup %d, want 2×%d", d, s)
	}
	ss, ds := single.OpStats(1), dup.OpStats(1)
	if ds.Messages != 2*ss.Messages {
		t.Fatalf("op Messages: dup %d, want 2×%d", ds.Messages, ss.Messages)
	}
	// Dimensions a duplicate must NOT change: the payload size ceiling and
	// the participant set.
	if s, d := single.MaxMessageBits(), dup.MaxMessageBits(); d != s {
		t.Fatalf("MaxMessageBits: dup %d, single %d", d, s)
	}
	if s, d := ss.Participants(), ds.Participants(); len(s) != len(d) {
		t.Fatalf("participants: dup %v, single %v", d, s)
	}
}

// TestProcSetOps covers the bitset directly, across the word boundary.
func TestProcSetOps(t *testing.T) {
	s := procSet{words: make([]uint64, procSetWords(130))}
	for _, p := range []int{1, 63, 64, 65, 128, 130} {
		if s.has(p) {
			t.Fatalf("empty set has %d", p)
		}
		s.add(p)
		if !s.has(p) {
			t.Fatalf("set missing %d after add", p)
		}
	}
	s.add(64) // adding twice is idempotent
	if got := s.count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	want := []int{1, 63, 64, 65, 128, 130}
	got := s.members(nil)
	if len(got) != len(want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
	other := procSet{words: make([]uint64, procSetWords(130))}
	other.add(2)
	if s.intersects(other) {
		t.Fatal("disjoint sets intersect")
	}
	other.add(128)
	if !s.intersects(other) {
		t.Fatal("overlapping sets do not intersect")
	}
}

// TestOpTableGrowAndForget exercises the dense ring through growth and
// floor advancement with an out-of-order forget pattern.
func TestOpTableGrowAndForget(t *testing.T) {
	var tab opTable
	n := 4 * opTableMinSize
	for i := 1; i <= n; i++ {
		id := OpID(i)
		tab.put(id, tab.alloc(id, ProcID(1), 0, 8))
	}
	for i := 1; i <= n; i++ {
		st := tab.get(OpID(i))
		if st == nil || st.ID != OpID(i) {
			t.Fatalf("get(%d) = %v after growth", i, st)
		}
	}
	// Forget out of order: the floor may only advance over a forgotten
	// prefix, and surviving ids must stay reachable.
	tab.forget(2)
	if tab.get(2) != nil {
		t.Fatal("forgotten id still reachable")
	}
	if tab.get(1) == nil || tab.get(3) == nil {
		t.Fatal("neighbors lost on forget")
	}
	tab.forget(1) // now 1 and 2 are both gone: floor advances past both
	if tab.floor < 2 {
		t.Fatalf("floor = %d, want >= 2", tab.floor)
	}
	for i := 3; i <= n; i++ {
		if tab.get(OpID(i)) == nil {
			t.Fatalf("id %d lost after floor advance", i)
		}
	}
	if tab.get(0) != nil || tab.get(OpID(n+1)) != nil {
		t.Fatal("out-of-window ids resolved")
	}
}
