package sim

import (
	"testing"

	"distcount/internal/loadstat"
	"distcount/internal/rng"
)

// sinkProto records the delivery time and sender of every message; replies
// nothing.
type sinkPayload struct{}

func (sinkPayload) Kind() string { return "sink" }

type sinkProto struct {
	deliveries []int64
	senders    []ProcID
}

func (s *sinkProto) Deliver(nw Transport, msg Message) {
	s.deliveries = append(s.deliveries, nw.Now())
	s.senders = append(s.senders, msg.From)
}

func (s *sinkProto) CloneProtocol() Protocol {
	return &sinkProto{
		deliveries: append([]int64(nil), s.deliveries...),
		senders:    append([]ProcID(nil), s.senders...),
	}
}

func sendTo(target ProcID) func(nw Transport, p ProcID) {
	return func(nw Transport, p ProcID) { nw.Send(target, sinkPayload{}) }
}

// TestServiceTimeSerializesReceiver: three messages reaching one processor
// in the same tick are processed one per service slot, in send order (their
// arrival order under unit latency); without a service time they all land
// at once.
func TestServiceTimeSerializesReceiver(t *testing.T) {
	run := func(opts ...Option) []int64 {
		s := &sinkProto{}
		nw := New(4, s, opts...)
		for _, p := range []ProcID{2, 3, 4} {
			nw.StartOp(p, sendTo(1))
		}
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		return s.deliveries
	}

	instant := run()
	if want := []int64{1, 1, 1}; !equalInt64s(instant, want) {
		t.Fatalf("instant deliveries = %v, want %v", instant, want)
	}
	spaced := run(WithServiceTime(3))
	if want := []int64{1, 4, 7}; !equalInt64s(spaced, want) {
		t.Fatalf("service-3 deliveries = %v, want %v", spaced, want)
	}
}

// scriptedLatency replays a fixed sequence of delays in draw order.
type scriptedLatency struct {
	delays []int64
	i      *int
}

func (l scriptedLatency) Delay(Message, *rng.Source) int64 {
	d := l.delays[*l.i]
	*l.i++
	return d
}

// TestServiceTimeNoSlotStealing: under variable latency, a message that
// was *sent* earlier (smaller sequence number) but *arrives* at the exact
// tick of another message's reserved service slot must not steal the
// slot — arrivals are served FIFO by arrival time.
func TestServiceTimeNoSlotStealing(t *testing.T) {
	s := &sinkProto{}
	// Send order (= delay draw order): W from p2 (delay 15), A from p3
	// (delay 10), B from p4 (delay 11). Arrival order: A@10, B@11, W@15.
	// With service 5: A served at 10 (free at 15), B reserves slot 15, W
	// arrives exactly at tick 15 with a smaller seq than B's re-pushed
	// event — it must wait for slot 20, not overtake B.
	nw := New(4, s, WithLatency(scriptedLatency{delays: []int64{15, 10, 11}, i: new(int)}),
		WithServiceTime(5))
	for _, p := range []ProcID{2, 3, 4} {
		nw.StartOp(p, sendTo(1))
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int64{10, 15, 20}; !equalInt64s(s.deliveries, want) {
		t.Fatalf("deliveries = %v, want %v (FIFO by arrival)", s.deliveries, want)
	}
	// The identities are the point: B (from p4, arrived 11) gets slot 15;
	// W (from p2, arrived 15) waits for slot 20 despite its smaller seq.
	if s.senders[1] != 4 || s.senders[2] != 2 {
		t.Fatalf("senders = %v, want [p3 p4 p2] (slot stolen by send order)", s.senders)
	}
}

// TestServiceBookingPoint: a network books service slots at send exactly
// when its messages reach each receiver in send order — unit latency and no
// crash or churn window — and its clone books where it does. Loss and
// duplication decide at send, so they keep the send-time booking.
func TestServiceBookingPoint(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want bool
	}{
		{"unit", nil, true},
		{"loss", []Option{WithFaults(FaultPlan{Loss: 0.1})}, true},
		{"dup", []Option{WithFaults(FaultPlan{DupNth: []NthRule{{Every: 2}}})}, true},
		{"crash", []Option{WithFaults(FaultPlan{Crashes: []Downtime{{Proc: 1, From: 5, To: 9}}})}, false},
		{"churn", []Option{WithFaults(FaultPlan{Churn: &ChurnSpec{Procs: 1, Period: 10, Down: 2}})}, false},
		{"uniform", []Option{WithLatency(UniformLatency{Min: 1, Max: 1})}, false},
	}
	for _, c := range cases {
		nw := New(3, &sinkProto{}, append(c.opts, WithServiceTime(2))...)
		cl, err := nw.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if nw.bookAtSend != c.want || cl.bookAtSend != c.want {
			t.Errorf("%s: books at send = %v (clone %v), want %v", c.name, nw.bookAtSend, cl.bookAtSend, c.want)
		}
	}
}

// TestServiceSlotAfterDrainedReservation: a reserved delivery destroyed by
// a crash window still used its slot, and a message arriving after the
// processor recovered is served on arrival — not at the dead slot, which
// lies in the past and inside the window.
func TestServiceSlotAfterDrainedReservation(t *testing.T) {
	s := &sinkProto{}
	nw := New(3, s, WithServiceTime(5),
		WithFaults(FaultPlan{Crashes: []Downtime{{Proc: 1, From: 3, To: 20}}}))
	nw.StartOp(2, sendTo(1)) // served at 1
	nw.StartOp(3, sendTo(1)) // arrives at 1, reserves slot 6, drained at 6
	nw.ScheduleOp(30, 2, sendTo(1))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 31}; !equalInt64s(s.deliveries, want) {
		t.Fatalf("deliveries = %v, want %v", s.deliveries, want)
	}
	if st := nw.FaultStats(); st.CrashDropped != 1 {
		t.Fatalf("crash-dropped = %d, want 1", st.CrashDropped)
	}
}

// TestServiceProfileHeterogeneous: a per-processor profile serializes each
// receiver at its own rate — a slow processor spaces its deliveries by its
// cost, a cost-0 processor absorbs everything instantly — and
// ServiceTimeOf exposes the configured costs.
func TestServiceProfileHeterogeneous(t *testing.T) {
	s := &sinkProto{}
	// p1 slow (cost 4), p2 instant (cost 0).
	nw := New(4, s, WithServiceProfile(func(p ProcID) int64 {
		if p == 1 {
			return 4
		}
		return 0
	}))
	if got := nw.ServiceTimeOf(1); got != 4 {
		t.Fatalf("ServiceTimeOf(1) = %d, want 4", got)
	}
	if got := nw.ServiceTimeOf(2); got != 0 {
		t.Fatalf("ServiceTimeOf(2) = %d, want 0", got)
	}
	for _, p := range []ProcID{3, 4} {
		nw.StartOp(p, sendTo(1))
		nw.StartOp(p, sendTo(2))
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	// Four deliveries total: p2 (cost 0) absorbs both of its messages at
	// tick 1; p1 (cost 4) processes its first at tick 1 and defers the
	// second to tick 5.
	var deferred []int64
	for _, at := range s.deliveries {
		if at != 1 {
			deferred = append(deferred, at)
		}
	}
	if len(s.deliveries) != 4 || len(deferred) != 1 || deferred[0] != 5 {
		t.Fatalf("deliveries = %v, want three at tick 1 and one deferred to 5", s.deliveries)
	}
}

// TestServiceProfileCloneCarriesProfile: a clone keeps the heterogeneous
// costs and continues identically to the original.
func TestServiceProfileCloneCarriesProfile(t *testing.T) {
	build := func() *Network {
		return New(3, &sinkProto{}, WithServiceProfile(func(p ProcID) int64 {
			return int64(p) // p1 cost 1, p2 cost 2, p3 cost 3
		}))
	}
	nw := build()
	nw.StartOp(2, sendTo(3))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	cl, err := nw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.ServiceTimeOf(3); got != 3 {
		t.Fatalf("clone ServiceTimeOf(3) = %d, want 3", got)
	}
	for _, n := range []*Network{nw, cl} {
		n.StartOp(1, sendTo(3))
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	a := nw.Protocol().(*sinkProto).deliveries
	b := cl.Protocol().(*sinkProto).deliveries
	if !equalInt64s(a, b) {
		t.Fatalf("clone diverged: %v vs %v", a, b)
	}
}

// TestServiceTimeAffectsOpCompletion: a deferred delivery pushes the
// operation's End to the actual processing time, so the workload
// engine's latencies include receiver-side queueing.
func TestServiceTimeAffectsOpCompletion(t *testing.T) {
	s := &sinkProto{}
	nw := New(3, s, WithServiceTime(5))
	var dones []int64
	nw.OnOpDone(func(st OpDone) { dones = append(dones, st.End) })
	nw.StartOp(2, sendTo(1))
	nw.StartOp(3, sendTo(1))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 6}; !equalInt64s(dones, want) {
		t.Fatalf("op completions = %v, want %v", dones, want)
	}
}

// TestServiceTimeExemptsLocalAndStarts: local timers and op initiations do
// not consume service slots.
func TestServiceTimeExemptsLocalAndStarts(t *testing.T) {
	tp := &timerProto{fired: new(int)}
	nw := New(2, tp, WithServiceTime(50))
	nw.StartOp(1, func(nw Transport, p ProcID) {
		nw.After(3, tickPayload{})
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if nw.Now() != 3 {
		t.Fatalf("timer fired at %d, want 3 (service time must not defer local wakeups)", nw.Now())
	}
}

// TestServiceTimeCloneCarriesState: a clone mid-history keeps the service
// configuration and the receivers' busy-until state.
func TestServiceTimeCloneCarriesState(t *testing.T) {
	s := &sinkProto{}
	nw := New(4, s, WithServiceTime(4))
	nw.StartOp(2, sendTo(1))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	cl, err := nw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Both continue identically: the next message to p1 at the cloned time
	// must wait out p1's service slot from the pre-clone delivery.
	for _, n := range []*Network{nw, cl} {
		n.StartOp(3, sendTo(1))
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	a := nw.Protocol().(*sinkProto).deliveries
	b := cl.Protocol().(*sinkProto).deliveries
	if !equalInt64s(a, b) {
		t.Fatalf("clone diverged: %v vs %v", a, b)
	}
	if last := a[len(a)-1]; last != 5 {
		t.Fatalf("post-clone delivery at %d, want 5 (slot from t=1 + service 4)", last)
	}
}

// TestMaxLoadMatchesSummarize: the bottleneck read from Loads() is the one
// Summarize finds in the sent/received halves at every quiescent point, and
// the halves are live: the vectors taken before the run keep counting.
func TestMaxLoadMatchesSummarize(t *testing.T) {
	pp := &pingPong{}
	nw := New(7, pp)
	sent, recv := nw.Sent(), nw.Recv()
	for i := 0; i < 25; i++ {
		nw.StartOp(ProcID(i%7+1), startPing(i%5))
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		got, want := loadstat.SummarizeLoads(nw.Loads()), loadstat.Summarize(sent, recv)
		if got.Bottleneck != want.Bottleneck || got.MaxLoad != want.MaxLoad || got.SumLoads != want.SumLoads {
			t.Fatalf("op %d: Loads() bottleneck (p%d, %d, sum %d), Summarize (p%d, %d, sum %d)",
				i, got.Bottleneck, got.MaxLoad, got.SumLoads, want.Bottleneck, want.MaxLoad, want.SumLoads)
		}
	}
}

// TestMaxLoadZero: a fresh network's Loads() reads processor 1 with load 0,
// the Summarize convention.
func TestMaxLoadZero(t *testing.T) {
	s := loadstat.SummarizeLoads(New(3, &pingPong{}).Loads())
	if s.Bottleneck != 1 || s.MaxLoad != 0 {
		t.Fatalf("fresh network bottleneck = (p%d, %d), want (p1, 0)", s.Bottleneck, s.MaxLoad)
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
