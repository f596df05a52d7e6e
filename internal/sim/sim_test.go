package sim

import (
	"errors"
	"math"
	"testing"
)

// pingPong is a toy protocol: on "ping" the receiver replies "pong" to the
// sender; on "pong" nothing happens.
type pingPayload struct{ Hops int }
type pongPayload struct{}

func (pingPayload) Kind() string { return "ping" }
func (pongPayload) Kind() string { return "pong" }

type pingPong struct {
	pings, pongs int
}

func (pp *pingPong) Deliver(nw Transport, msg Message) {
	switch pl := msg.Payload.(type) {
	case pingPayload:
		pp.pings++
		if pl.Hops > 0 {
			next := msg.To + 1
			if int(next) > nw.N() {
				next = 1
			}
			nw.Send(next, pingPayload{Hops: pl.Hops - 1})
		}
		nw.Send(msg.From, pongPayload{})
	case pongPayload:
		pp.pongs++
	}
}

func (pp *pingPong) CloneProtocol() Protocol {
	cp := *pp
	return &cp
}

func startPing(hops int) func(nw Transport, p ProcID) {
	return func(nw Transport, p ProcID) {
		next := p + 1
		if int(next) > nw.N() {
			next = 1
		}
		nw.Send(next, pingPayload{Hops: hops})
	}
}

// recordDone installs an OnOpDone recorder on nw: the simulator frees an
// operation's record with its last event, so a test reads a finished
// operation off the OpDone its completion reported.
func recordDone(t *testing.T, nw *Network) map[OpID]OpDone {
	done := map[OpID]OpDone{}
	nw.OnOpDone(func(d OpDone) {
		if _, dup := done[d.ID]; dup {
			t.Fatalf("op %d completed twice", d.ID)
		}
		if nw.ops.get(d.ID) != nil {
			t.Fatalf("op %d completed with its record still live", d.ID)
		}
		done[d.ID] = d
	})
	return done
}

// liveRecords counts the operation records the network still holds.
func liveRecords(nw *Network) int {
	live := 0
	for id := nw.ops.floor + 1; id <= nw.ops.top; id++ {
		if nw.ops.get(id) != nil {
			live++
		}
	}
	return live
}

func TestSendAndDeliver(t *testing.T) {
	pp := &pingPong{}
	nw := New(3, pp)
	nw.StartOp(1, startPing(0))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if pp.pings != 1 || pp.pongs != 1 {
		t.Fatalf("pings=%d pongs=%d, want 1/1", pp.pings, pp.pongs)
	}
	if got := nw.MessagesTotal(); got != 2 {
		t.Fatalf("total messages = %d, want 2", got)
	}
}

func TestLoadAccounting(t *testing.T) {
	pp := &pingPong{}
	nw := New(3, pp)
	nw.StartOp(1, startPing(0)) // 1 -> 2 ping, 2 -> 1 pong
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nw.Load(1); got != 2 { // sent ping, received pong
		t.Fatalf("load(1) = %d, want 2", got)
	}
	if got := nw.Load(2); got != 2 { // received ping, sent pong
		t.Fatalf("load(2) = %d, want 2", got)
	}
	if got := nw.Load(3); got != 0 {
		t.Fatalf("load(3) = %d, want 0", got)
	}
	loads := nw.Loads()
	if loads[1] != 2 || loads[2] != 2 || loads[3] != 0 {
		t.Fatalf("Loads() = %v", loads)
	}
}

func TestSumOfLoadsIsTwiceMessages(t *testing.T) {
	pp := &pingPong{}
	nw := New(5, pp)
	for p := 1; p <= 5; p++ {
		nw.StartOp(ProcID(p), startPing(7))
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	for _, l := range nw.Loads() {
		sum += l
	}
	if sum != 2*nw.MessagesTotal() {
		t.Fatalf("sum of loads %d != 2 * %d messages", sum, nw.MessagesTotal())
	}
}

func TestTracingBuildsDAG(t *testing.T) {
	pp := &pingPong{}
	nw := New(4, pp)
	log := dagLog{}
	nw.OnDeliver(log.record)
	done := recordDone(t, nw)
	id := nw.StartOp(1, startPing(2))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	recs := log.check(t, id, 1)
	if got, want := int64(len(recs)-1), done[id].Messages; got != want {
		t.Fatalf("DAG messages = %d, op messages = %d", got, want)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() int64 {
		pp := &pingPong{}
		nw := New(7, pp, WithSeed(99), WithLatency(UniformLatency{Min: 1, Max: 9}))
		for p := 1; p <= 7; p++ {
			nw.StartOp(ProcID(p), startPing(p))
			if err := nw.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return nw.MessagesTotal()*1_000_003 + nw.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %d vs %d", a, b)
	}
}

func TestLatencyModels(t *testing.T) {
	pp := &pingPong{}
	// Unit latency: ping at t=1, pong at t=2.
	nw := New(2, pp)
	nw.StartOp(1, startPing(0))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if nw.Now() != 2 {
		t.Fatalf("unit latency finished at t=%d, want 2", nw.Now())
	}

	// Uniform latency in [3,3] behaves like fixed 3.
	nw2 := New(2, &pingPong{}, WithLatency(UniformLatency{Min: 3, Max: 3}))
	nw2.StartOp(1, startPing(0))
	if err := nw2.Run(); err != nil {
		t.Fatal(err)
	}
	if nw2.Now() != 6 {
		t.Fatalf("uniform[3,3] finished at t=%d, want 6", nw2.Now())
	}

	// Skew latency is deterministic per pair.
	s := SkewLatency{Max: 10}
	m12 := Message{From: 1, To: 2}
	if d1, d2 := s.Delay(m12, nil), s.Delay(m12, nil); d1 != d2 {
		t.Fatalf("skew latency not deterministic: %d vs %d", d1, d2)
	}
	if d := s.Delay(Message{From: 3, To: 4}, nil); d < 1 || d > 10 {
		t.Fatalf("skew delay %d out of [1,10]", d)
	}
}

func TestAfterIsNotCounted(t *testing.T) {
	timers := 0
	tp := &timerProto{fired: &timers}
	nw := New(2, tp)
	nw.StartOp(1, func(nw Transport, p ProcID) {
		nw.After(5, tickPayload{})
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if timers != 1 {
		t.Fatalf("timer fired %d times, want 1", timers)
	}
	if nw.MessagesTotal() != 0 {
		t.Fatalf("timer counted as %d network messages", nw.MessagesTotal())
	}
	if nw.Load(1) != 0 {
		t.Fatalf("timer affected load: %d", nw.Load(1))
	}
	if nw.Now() != 5 {
		t.Fatalf("timer fired at t=%d, want 5", nw.Now())
	}
}

type tickPayload struct{}

func (tickPayload) Kind() string { return "tick" }

type timerProto struct{ fired *int }

func (tp *timerProto) Deliver(_ Transport, msg Message) {
	if !msg.Local {
		panic("timer delivered as network message")
	}
	*tp.fired++
}

func TestCloneRequiresQuiescence(t *testing.T) {
	pp := &pingPong{}
	nw := New(2, pp)
	nw.StartOp(1, startPing(0))
	// Queue non-empty: clone must fail.
	if _, err := nw.Clone(); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("clone on busy network: err = %v, want ErrNotQuiescent", err)
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Clone(); err != nil {
		t.Fatalf("clone at quiescence failed: %v", err)
	}
}

// TestCloneRefusesAfterCallbackPanic: Step defers nothing, so a callback
// that panics leaves the network inside its delivery, with its queue empty,
// and Clone refuses it.
func TestCloneRefusesAfterCallbackPanic(t *testing.T) {
	nw := New(2, &pingPong{})
	nw.StartOp(1, func(Transport, ProcID) { panic("protocol bug") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the start callback's panic did not surface from Step")
			}
		}()
		nw.Step()
	}()
	if nw.Pending() != 0 {
		t.Fatalf("%d events pending, want 0", nw.Pending())
	}
	if _, err := nw.Clone(); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("Clone after a panicked callback: err = %v, want ErrNotQuiescent", err)
	}
}

func TestCloneRequiresCloneableProtocol(t *testing.T) {
	nw := New(2, &timerProto{fired: new(int)})
	if _, err := nw.Clone(); !errors.Is(err, ErrNotCloneable) {
		t.Fatalf("err = %v, want ErrNotCloneable", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	pp := &pingPong{}
	nw := New(4, pp, WithSeed(5))
	nw.StartOp(1, startPing(3))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	before := nw.MessagesTotal()

	cl, err := nw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if cl.MessagesTotal() != before {
		t.Fatalf("clone total = %d, want %d", cl.MessagesTotal(), before)
	}
	cl.StartOp(2, startPing(3))
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if nw.MessagesTotal() != before {
		t.Fatalf("running clone mutated original: %d -> %d", before, nw.MessagesTotal())
	}
	if cl.MessagesTotal() <= before {
		t.Fatalf("clone did not progress: %d", cl.MessagesTotal())
	}
	// Loads were copied, not shared.
	if &nw.sent[0] == &cl.sent[0] {
		t.Fatal("clone shares load slices with original")
	}
}

func TestEventBudget(t *testing.T) {
	// A protocol that ping-pongs forever must hit the budget.
	pp := &forever{}
	nw := New(2, pp)
	nw.maxEvents = 100
	nw.StartOp(1, func(nw Transport, p ProcID) { nw.Send(2, tickPayload{}) })
	err := nw.Run()
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
}

type forever struct{}

func (forever) Deliver(nw Transport, msg Message) {
	nw.Send(msg.From, tickPayload{})
}

func TestSendOutsideCallbackPanics(t *testing.T) {
	nw := New(2, &pingPong{})
	defer func() {
		if recover() == nil {
			t.Fatal("Send outside callback did not panic")
		}
	}()
	nw.Send(1, tickPayload{})
}

func TestSendToInvalidProcPanics(t *testing.T) {
	nw := New(2, &pingPong{})
	defer func() {
		if recover() == nil {
			t.Fatal("StartOp for invalid processor did not panic")
		}
	}()
	nw.StartOp(3, startPing(0))
}

func TestScheduleOpInPastPanics(t *testing.T) {
	pp := &pingPong{}
	nw := New(2, pp)
	nw.StartOp(1, startPing(0))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleOp in the past did not panic")
		}
	}()
	nw.ScheduleOp(0, 1, startPing(0))
}

func TestConcurrentOpsInterleave(t *testing.T) {
	pp := &pingPong{}
	nw := New(6, pp)
	done := recordDone(t, nw)
	ids := make([]OpID, 0, 3)
	for p := 1; p <= 3; p++ {
		ids = append(ids, nw.ScheduleOp(0, ProcID(p), startPing(4)))
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if done[id].Messages == 0 {
			t.Fatalf("op %d missing completion", id)
		}
	}
}

// TestConcurrentTracingAttribution: two interleaved recorded operations
// each get a valid DAG containing only their own causal messages.
func TestConcurrentTracingAttribution(t *testing.T) {
	pp := &pingPong{}
	nw := New(8, pp)
	log := dagLog{}
	nw.OnDeliver(log.record)
	done := recordDone(t, nw)
	idA := nw.ScheduleOp(0, 1, startPing(2)) // chain 1->2->3->4
	idB := nw.ScheduleOp(0, 5, startPing(2)) // chain 5->6->7->8
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	recsA, recsB := log.check(t, idA, 1), log.check(t, idB, 5)
	stA, stB := done[idA], done[idB]
	// Both ops have the same shape, so the same message count; each DAG
	// accounts exactly its own messages.
	if stA.Messages != stB.Messages {
		t.Fatalf("asymmetric op attribution: %d vs %d", stA.Messages, stB.Messages)
	}
	if int64(len(recsA)-1+len(recsB)-1) != nw.MessagesTotal() {
		t.Fatalf("DAGs account %d+%d messages, network has %d",
			len(recsA)-1, len(recsB)-1, nw.MessagesTotal())
	}
	// Ping chains 1->2->3->4 and 5->6->7->8: disjoint participants.
	for _, d := range recsA {
		if d.Proc >= 5 {
			t.Fatalf("op A touched processor %d", d.Proc)
		}
	}
}

// TestStepAndPending: Step processes exactly one event; Pending counts the
// queue.
func TestStepAndPending(t *testing.T) {
	pp := &pingPong{}
	nw := New(2, pp)
	nw.StartOp(1, startPing(0))
	if got := nw.Pending(); got != 1 { // the op-start event
		t.Fatalf("pending = %d, want 1", got)
	}
	steps := 0
	for {
		ok, err := nw.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		steps++
	}
	// start + ping + pong = 3 events.
	if steps != 3 {
		t.Fatalf("steps = %d, want 3", steps)
	}
	if ok, _ := nw.Step(); ok {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestOpDoneAt(t *testing.T) {
	pp := &pingPong{}
	nw := New(3, pp)
	done := recordDone(t, nw)
	id := nw.StartOp(1, startPing(1)) // 1->2 ping (t1), 2->3 ping(t2), pongs t2, t3
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	st := done[id]
	if st.Start != 0 {
		t.Fatalf("Start = %d, want 0", st.Start)
	}
	if st.End != 3 {
		t.Fatalf("End = %d, want 3", st.End)
	}
}

func TestHeapOrdering(t *testing.T) {
	var h eventHeap
	for i, at := range []int64{5, 1, 3, 1, 9, 2} {
		h.push(&event{at: at, seq: uint64(i)})
	}
	var prevAt int64 = -1
	var prevSeq uint64
	for h.len() > 0 {
		e := h.pop()
		if e.at < prevAt || (e.at == prevAt && e.seq < prevSeq) {
			t.Fatalf("heap order violated: (%d,%d) after (%d,%d)", e.at, e.seq, prevAt, prevSeq)
		}
		prevAt, prevSeq = e.at, e.seq
	}
}

// TestBitsForBoundaries pins BitsFor at every power-of-two boundary: 2^k-1
// takes k bits and 2^k takes k+1, from 0 (one bit, like 1) up to
// math.MaxInt.
func TestBitsForBoundaries(t *testing.T) {
	type tc struct{ v, want int }
	cases := []tc{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {math.MaxInt, 63}}
	for k := 1; k < 63; k++ {
		cases = append(cases, tc{1<<k - 1, k}, tc{1 << k, k + 1})
	}
	for _, c := range cases {
		if got := BitsFor(c.v); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestProcIDString(t *testing.T) {
	if got := ProcID(7).String(); got != "p7" {
		t.Fatalf("ProcID string = %q", got)
	}
}

func TestAccessors(t *testing.T) {
	pp := &pingPong{}
	nw := New(3, pp, WithSeed(9))
	if nw.Protocol() != pp {
		t.Fatal("Protocol() wrong")
	}
	if nw.Rand() == nil {
		t.Fatal("Rand() nil")
	}
	done := recordDone(t, nw)
	id := nw.StartOp(1, startPing(0))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if nw.Ops() != 1 {
		t.Fatalf("Ops() = %d", nw.Ops())
	}
	if sent := nw.Sent(); sent[1] != 1 {
		t.Fatalf("Sent() = %v", sent)
	}
	if recv := nw.Recv(); recv[2] != 1 {
		t.Fatalf("Recv() = %v", recv)
	}
	if st := done[id]; st.Initiator != 1 || st.Messages != 2 { // ping and pong
		t.Fatalf("OpDone = %+v, want initiator p1 and two messages", st)
	}
	// No BitSized payloads in this protocol.
	if nw.BitsTotal() != 0 || nw.MaxMessageBits() != 0 {
		t.Fatal("bit accounting nonzero without BitSized payloads")
	}
}

func TestBitsAccounting(t *testing.T) {
	nw := New(2, &sizedProto{})
	nw.StartOp(1, func(nw Transport, p ProcID) {
		nw.Send(2, sizedPayload{bits: 7})
		nw.Send(2, sizedPayload{bits: 3})
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if nw.BitsTotal() != 10 {
		t.Fatalf("BitsTotal = %d, want 10", nw.BitsTotal())
	}
	if nw.MaxMessageBits() != 7 {
		t.Fatalf("MaxMessageBits = %d, want 7", nw.MaxMessageBits())
	}
}

type sizedPayload struct{ bits int }

func (sizedPayload) Kind() string     { return "sized" }
func (s sizedPayload) Bits(int64) int { return s.bits }

type sizedProto struct{}

func (sizedProto) Deliver(Transport, Message) {}

func TestAfterNegativeDelayPanics(t *testing.T) {
	nw := New(2, &sizedProto{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	nw.StartOp(1, func(nw Transport, p ProcID) {
		nw.After(-1, tickPayload{})
	})
	_ = nw.Run()
}

func TestAfterOutsideCallbackPanics(t *testing.T) {
	nw := New(2, &sizedProto{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	nw.After(1, tickPayload{})
}

// TestOnOpDoneFiresOncePerOp: two interleaved operations each trigger the
// completion handler exactly once, at their own completion time.
func TestOnOpDoneFiresOncePerOp(t *testing.T) {
	pp := &pingPong{}
	nw := New(8, pp)
	done := map[OpID]int64{}
	nw.OnOpDone(func(st OpDone) {
		if _, dup := done[st.ID]; dup {
			t.Fatalf("op %d completed twice", st.ID)
		}
		if nw.ops.get(st.ID) != nil {
			t.Fatalf("op %d handler sees its record still live", st.ID)
		}
		if st.End != nw.Now() {
			t.Fatalf("op %d completed at %d with End %d", st.ID, nw.Now(), st.End)
		}
		done[st.ID] = nw.Now()
	})
	idA := nw.ScheduleOp(0, 1, startPing(2))
	idB := nw.ScheduleOp(0, 5, startPing(4)) // longer chain, finishes later
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	if done[idB] <= done[idA] {
		t.Fatalf("longer op finished first: %v", done)
	}
}

// TestOnOpDoneTimerKeepsOpOpen: an operation with an outstanding local
// wakeup is not complete until the wakeup fires.
func TestOnOpDoneTimerKeepsOpOpen(t *testing.T) {
	timers := 0
	nw := New(2, &timerProto{fired: &timers})
	var doneAt int64 = -1
	nw.OnOpDone(func(st OpDone) { doneAt = nw.Now() })
	nw.StartOp(1, func(nw Transport, p ProcID) {
		nw.After(9, tickPayload{})
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 9 {
		t.Fatalf("op completed at t=%d, want 9 (after the timer)", doneAt)
	}
}

// TestOnOpDoneClosedLoop: the handler may admit the next operation — the
// pattern the workload engine relies on. A chain of 5 ops started one from
// another's completion must all run.
func TestOnOpDoneClosedLoop(t *testing.T) {
	pp := &pingPong{}
	nw := New(4, pp)
	completions := 0
	nw.OnOpDone(func(st OpDone) {
		completions++
		if completions < 5 {
			next := st.Initiator%4 + 1
			nw.ScheduleOp(nw.Now()+1, next, startPing(1))
		}
	})
	nw.StartOp(1, startPing(1))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if completions != 5 {
		t.Fatalf("completions = %d, want 5", completions)
	}
	if nw.Ops() != 5 {
		t.Fatalf("Ops() = %d, want 5", nw.Ops())
	}
}

// TestForgetOp: the network frees an operation's record with its last
// event, so ForgetOp has nothing left to do — on a finished operation, twice,
// or on one still in flight, which then completes as if never forgotten.
func TestForgetOp(t *testing.T) {
	pp := &pingPong{}
	nw := New(2, pp)
	done := recordDone(t, nw)
	id := nw.StartOp(1, startPing(0))
	nw.ForgetOp(id) // in flight: no effect
	if nw.ops.get(id) == nil {
		t.Fatal("ForgetOp freed an in-flight record")
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := done[id]; !ok || liveRecords(nw) != 0 {
		t.Fatalf("completed %v, %d records live; want the op done and none live", ok, liveRecords(nw))
	}
	nw.ForgetOp(id)
	nw.ForgetOp(id)
}

// parkProto models a combining-style rendezvous: processor 3 parks the
// first request it receives (Adopt) and, on the second, replies to both
// initiators — the parked one via SendAs, the current one via Send.
type parkProto struct {
	parked ProcID
	tok    OpToken
}

type parkReq struct{ Origin ProcID }
type parkAck struct{}

func (parkReq) Kind() string { return "park-request" }
func (parkAck) Kind() string { return "park-ack" }

func (pp *parkProto) Deliver(nw Transport, msg Message) {
	switch pl := msg.Payload.(type) {
	case parkReq:
		if pp.parked == 0 {
			pp.parked = pl.Origin
			pp.tok = nw.Adopt()
			return
		}
		nw.SendAs(pp.tok, pp.parked, parkAck{}, 0)
		nw.Send(pl.Origin, parkAck{})
		pp.parked = 0
		pp.tok = OpToken{}
	case parkAck:
	}
}

func startParkReq(nw Transport, p ProcID) {
	nw.Send(3, parkReq{Origin: p})
}

// TestAdoptKeepsOpOpenAcrossCarrier: an operation whose reply is carried
// by another operation's delivery completes only when the reply lands, and
// the reply is attributed to the adopted operation.
func TestAdoptKeepsOpOpenAcrossCarrier(t *testing.T) {
	pp := &parkProto{}
	nw := New(3, pp)
	done, ends := map[OpID]int64{}, map[OpID]OpDone{}
	nw.OnOpDone(func(st OpDone) { done[st.ID], ends[st.ID] = nw.Now(), st })
	idA := nw.ScheduleOp(0, 1, startParkReq)
	idB := nw.ScheduleOp(5, 2, startParkReq) // partner arrives at t=6
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	// A: req at t=1 (parked), ack sent at t=6, lands t=7. Without Adopt, A
	// would have "completed" at t=1.
	if done[idA] != 7 {
		t.Fatalf("parked op completed at t=%d, want 7 (when its ack landed)", done[idA])
	}
	if done[idB] != 7 {
		t.Fatalf("carrier op completed at t=%d, want 7", done[idB])
	}
	stA := ends[idA]
	// A's messages: its request plus its re-attributed ack.
	if stA.Messages != 2 {
		t.Fatalf("parked op has %d messages, want 2 (request + adopted ack)", stA.Messages)
	}
	if stA.End != 7 {
		t.Fatalf("parked op End = %d, want 7", stA.End)
	}
}

// TestReleaseCompletesOp: releasing an adopted continuation from another
// operation's delivery completes the held op and fires its handler.
func TestReleaseCompletesOp(t *testing.T) {
	rp := &releaseProto{}
	nw := New(3, rp)
	var order []OpID
	nw.OnOpDone(func(st OpDone) { order = append(order, st.ID) })
	idA := nw.ScheduleOp(0, 1, startParkReq)
	idB := nw.ScheduleOp(5, 2, startParkReq)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("completions = %v, want 2", order)
	}
	// A completes via Release during B's delivery; both fire at that step,
	// A (queued release) after B (the delivered event's op had pending 0
	// only after its own ack... B sends nothing, so B completes first).
	if order[0] != idB || order[1] != idA {
		t.Fatalf("completion order = %v, want [B=%d A=%d]", order, idB, idA)
	}
}

// releaseProto parks the first request and releases it un-answered when
// the second arrives (neither sends replies).
type releaseProto struct {
	parked ProcID
	tok    OpToken
}

func (rp *releaseProto) Deliver(nw Transport, msg Message) {
	if pl, ok := msg.Payload.(parkReq); ok {
		if rp.parked == 0 {
			rp.parked = pl.Origin
			rp.tok = nw.Adopt()
			return
		}
		nw.Release(rp.tok)
		rp.parked = 0
		rp.tok = OpToken{}
	}
}

func TestAdoptOutsideCallbackPanics(t *testing.T) {
	nw := New(2, &pingPong{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	nw.Adopt()
}

func TestSendAsInvalidTokenPanics(t *testing.T) {
	nw := New(2, &invalidTokProto{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	nw.StartOp(1, func(nw Transport, p ProcID) {
		nw.SendAs(OpToken{}, 2, tickPayload{}, 0)
	})
	_ = nw.Run()
}

type invalidTokProto struct{}

func (invalidTokProto) Deliver(Transport, Message) {}
