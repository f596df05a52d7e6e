package counter

import (
	"fmt"
	"sync"
	"testing"

	"distcount/internal/sim"
)

// echoProto is a minimal protocol for exercising Ops: an operation sends
// one message to a server processor (1), which replies with a running
// value; the reply finishes the operation.
type echoProto struct {
	val int
	ops *Ops[struct{}, int]
}

type (
	echoReq  struct{ Origin sim.ProcID }
	echoResp struct{ Val int }
)

func (echoReq) Kind() string  { return "echo-req" }
func (echoResp) Kind() string { return "echo-resp" }

func (pr *echoProto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	nw.Send(1, echoReq{Origin: p})
}

func (pr *echoProto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case echoReq:
		nw.Send(pl.Origin, echoResp{Val: pr.val})
		pr.val++
	case echoResp:
		pr.ops.Finish(nw, msg.To, pl.Val)
	}
}

func newEcho(n int) (*sim.Network, *echoProto) {
	pr := &echoProto{ops: NewOps[struct{}, int](n)}
	return sim.New(n, pr, sim.WithSeed(1)), pr
}

func TestOpsLifecycle(t *testing.T) {
	net, pr := newEcho(4)
	id2 := net.ScheduleOp(0, 2, pr.initiate)
	id3 := net.ScheduleOp(0, 3, pr.initiate)
	// Begin runs when the start event delivers: after two steps both
	// operations are open concurrently.
	for i := 0; i < 2; i++ {
		if _, err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !pr.ops.InFlight(2) || !pr.ops.InFlight(3) {
		t.Fatal("started operations not in flight")
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if pr.ops.InFlight(2) || pr.ops.InFlight(3) {
		t.Fatal("completed operations still in flight")
	}
	v2, ok2 := pr.ops.Take(id2)
	v3, ok3 := pr.ops.Take(id3)
	if !ok2 || !ok3 {
		t.Fatalf("values not recorded: (%v,%v) (%v,%v)", v2, ok2, v3, ok3)
	}
	if v2 == v3 {
		t.Fatalf("distinct operations got the same value %d", v2)
	}
	// Take consumes.
	if _, ok := pr.ops.Take(id2); ok {
		t.Fatal("Take did not consume the value")
	}
}

func TestOpsBeginRejectsOverlap(t *testing.T) {
	net, pr := newEcho(4)
	net.ScheduleOp(0, 2, pr.initiate)
	net.ScheduleOp(0, 2, pr.initiate) // second op by the same initiator
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping operations by one initiator did not panic")
		}
	}()
	_ = net.Run()
}

func TestOpsBeginOutsideContext(t *testing.T) {
	net, pr := newEcho(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Begin outside an operation context did not panic")
		}
	}()
	pr.ops.Begin(net, 1)
}

func TestOpsGetStray(t *testing.T) {
	_, pr := newEcho(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Get for an idle initiator did not panic")
		}
	}()
	pr.ops.Get(2)
}

func TestOpsCloneIndependence(t *testing.T) {
	net, pr := newEcho(4)
	id := net.ScheduleOp(0, 2, pr.initiate)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	cp := pr.ops.Clone()
	if v, ok := cp.Take(id); !ok || v != 0 {
		t.Fatalf("clone lost recorded value: (%d,%v)", v, ok)
	}
	// Consuming from the clone must not affect the original.
	if v, ok := pr.ops.Take(id); !ok || v != 0 {
		t.Fatalf("original lost value after clone consumed it: (%d,%v)", v, ok)
	}
}

// TestOpsFinishStaleDropped: under fault injection a duplicated reply
// arrives after its operation already finished; the second Finish is
// dropped and counted, never applied, and the operation's value is the
// first delivery's.
func TestOpsFinishStaleDropped(t *testing.T) {
	pr := &echoProto{ops: NewOps[struct{}, int](4)}
	// Duplicate every send of the server (processor 1): the reply to the
	// initiator is delivered twice, so Finish runs twice for one operation.
	net := sim.New(4, pr, sim.WithFaults(sim.FaultPlan{
		DupNth: []sim.NthRule{{Proc: 1, Every: 1}},
	}))
	id := net.ScheduleOp(0, 2, pr.initiate)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got := pr.ops.DroppedStale(); got != 1 {
		t.Fatalf("dropped stale = %d, want 1 (the duplicated reply)", got)
	}
	if v, ok := pr.ops.Take(id); !ok || v != 0 {
		t.Fatalf("operation value = (%d,%v), want (0,true)", v, ok)
	}
	if pr.ops.InFlight(2) {
		t.Fatal("operation still in flight after its first completion")
	}
}

// getForProto is echoProto with per-operation state read through GetFor on
// the reply path — the discrimination every quorum-style protocol needs so
// a duplicated response cannot mutate the initiator's NEXT operation.
type getForProto struct {
	val   int
	ops   *Ops[int, int]
	stale int
}

func (pr *getForProto) initiate(nw sim.Transport, p sim.ProcID) {
	st := pr.ops.Begin(nw, p)
	*st = 7 // marker: live state is visible on the reply path
	nw.Send(1, echoReq{Origin: p})
}

func (pr *getForProto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case echoReq:
		nw.Send(pl.Origin, echoResp{Val: pr.val})
		pr.val++
	case echoResp:
		st, ok := pr.ops.GetFor(nw, msg.To)
		if !ok {
			pr.stale++
			return
		}
		if *st != 7 {
			panic("GetFor returned another operation's state")
		}
		pr.ops.Finish(nw, msg.To, pl.Val)
	}
}

func TestOpsGetForRejectsStaleReplies(t *testing.T) {
	pr := &getForProto{ops: NewOps[int, int](4)}
	net := sim.New(4, pr, sim.WithFaults(sim.FaultPlan{
		DupNth: []sim.NthRule{{Proc: 1, Every: 1}},
	}))
	id := net.ScheduleOp(0, 2, pr.initiate)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if pr.stale != 1 {
		t.Fatalf("stale replies seen = %d, want 1", pr.stale)
	}
	if got := pr.ops.DroppedStale(); got != 1 {
		t.Fatalf("dropped stale = %d, want 1", got)
	}
	if v, ok := pr.ops.Take(id); !ok || v != 0 {
		t.Fatalf("operation value = (%d,%v), want (0,true)", v, ok)
	}
	// A fresh operation after the stale traffic works normally.
	id2 := net.ScheduleOp(net.Now(), 3, pr.initiate)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if v, ok := pr.ops.Take(id2); !ok || v != 1 {
		t.Fatalf("follow-up operation value = (%d,%v), want (1,true)", v, ok)
	}
}

// TestSimIncSequence: the sequential Inc produces 0, 1, 2, ... from a
// machine's Initiate and Value hooks.
func TestSimIncSequence(t *testing.T) {
	pr := &echoProto{ops: NewOps[struct{}, int](4)}
	c := OnSim(Machine{Name: "echo", N: 4, Proto: pr, Initiate: pr.initiate, Value: pr.ops.Take})
	for want := 0; want < 6; want++ {
		p := sim.ProcID(want%3 + 2)
		v, err := c.Inc(p)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("Inc returned %d, want %d", v, want)
		}
	}
}

// opCtx is a Transport stub that only answers CurrentOp — all the table ever
// asks of its transport — so the slot and value-table tests below can place
// each call in an exact delivery context without scripting a protocol.
type opCtx struct {
	sim.Transport
	op sim.OpID
}

func (c opCtx) CurrentOp() sim.OpID { return c.op }

func in(op sim.OpID) sim.Transport { return opCtx{op: op} }

// probeState mirrors quorumctr's opState: a slice plus counters, the shape
// that would leak between operations if a reused slot were not zeroed.
type probeState struct {
	quorum []int
	await  int
}

// TestOpsReusedSlotIsZeroed: an initiator's second Begin must not see the
// first operation's state (quorumctr appends to nothing, but reads
// awaitReads and quorum from a slot it assumes fresh).
func TestOpsReusedSlotIsZeroed(t *testing.T) {
	ops := NewOps[probeState, int](8)
	st := ops.Begin(in(1), 4)
	st.quorum, st.await = []int{1, 2, 3}, 2
	if !ops.Finish(in(1), 4, 10) {
		t.Fatal("first operation's Finish not applied")
	}
	st2 := ops.Begin(in(2), 4)
	if st2.quorum != nil || st2.await != 0 {
		t.Fatalf("reused slot handed out stale state %+v", *st2)
	}
	if st2 != st {
		t.Fatal("second operation got a fresh slot; the initiator's slot should be reused")
	}
	if _, ok := ops.Take(2); ok {
		t.Fatal("the second operation has a value before it finished")
	}
}

// TestOpsStaleAfterNextBegin: a duplicated or deferred reply of operation 1
// lands after its initiator already began operation 2. Its delivery context
// is still operation 1, so GetFor and Finish must refuse it — counted, never
// applied — and operation 2's state and value stay untouched.
func TestOpsStaleAfterNextBegin(t *testing.T) {
	ops := NewOps[int, int](8)
	*ops.Begin(in(1), 5) = 11
	if !ops.Finish(in(1), 5, 100) {
		t.Fatal("operation 1 did not finish")
	}
	st2 := ops.Begin(in(2), 5)
	*st2 = 22

	if st, ok := ops.GetFor(in(1), 5); ok {
		t.Fatalf("GetFor in operation 1's context returned operation 2's state (%d)", *st)
	}
	if ops.Finish(in(1), 5, 999) {
		t.Fatal("stale Finish was applied to the initiator's next operation")
	}
	if got := ops.DroppedStale(); got != 2 {
		t.Fatalf("dropped stale = %d, want 2", got)
	}
	if !ops.InFlight(5) || *ops.Get(5) != 22 {
		t.Fatal("operation 2 disturbed by operation 1's late reply")
	}
	if v, ok := ops.Take(1); !ok || v != 100 {
		t.Fatalf("operation 1's value = (%d,%v), want (100,true)", v, ok)
	}
	if _, ok := ops.Take(2); ok {
		t.Fatal("operation 2 has a value before it finished")
	}
	if !ops.Finish(in(2), 5, 200) {
		t.Fatal("operation 2's own Finish refused")
	}
	if v, ok := ops.Take(2); !ok || v != 200 {
		t.Fatalf("operation 2's value = (%d,%v), want (200,true)", v, ok)
	}
}

// TestOpsTakeSurvivesRingWraparound: values nobody consumed are displaced
// from the id-indexed ring by later completions and must still be there —
// once — when Take finally asks, however many operations came in between.
func TestOpsTakeSurvivesRingWraparound(t *testing.T) {
	ops := NewOps[struct{}, int](8)
	const total = 3*valueRingSize + 5
	for id := sim.OpID(1); id <= total; id++ {
		p := sim.ProcID(id%7 + 1)
		ops.Begin(in(id), p)
		if !ops.Finish(in(id), p, int(id)*10) {
			t.Fatalf("operation %d did not finish", id)
		}
	}
	// Oldest first (spilled), newest last (still in the ring), and one in
	// the middle twice.
	for _, id := range []sim.OpID{1, 2, valueRingSize, valueRingSize + 1, 2 * valueRingSize, total - 1, total} {
		if v, ok := ops.Take(id); !ok || v != int(id)*10 {
			t.Fatalf("Take(%d) = (%d,%v), want (%d,true)", id, v, ok, int(id)*10)
		}
		if _, ok := ops.Take(id); ok {
			t.Fatalf("Take(%d) returned a value twice", id)
		}
	}
	// Everything not taken above is still retrievable.
	left := 0
	for id := sim.OpID(1); id <= total; id++ {
		if v, ok := ops.Take(id); ok {
			if v != int(id)*10 {
				t.Fatalf("Take(%d) = %d, want %d", id, v, int(id)*10)
			}
			left++
		}
	}
	if left != total-7 {
		t.Fatalf("%d values left after taking 7 of %d", left, total)
	}
	if _, ok := ops.Take(0); ok {
		t.Fatal("Take(0) produced a value")
	}
}

// TestOpsCloneDeepStateBothDirections: an in-flight operation's counts, the
// recorded values (ring and spill) and the stale counter of original and
// clone evolve independently, whichever side is mutated. The state's slice
// is shared, not copied: Clone's rule is that it is never mutated once set.
func TestOpsCloneDeepStateBothDirections(t *testing.T) {
	ops := NewOps[probeState, int](8)
	// Enough unconsumed completions that the clone has to copy a spill map.
	for id := sim.OpID(1); id <= valueRingSize+2; id++ {
		ops.Begin(in(id), 2)
		ops.Finish(in(id), 2, int(id))
	}
	const live = valueRingSize + 3
	st := ops.Begin(in(live), 3)
	st.quorum, st.await = []int{7, 8, 9}, 3
	ops.GetFor(in(1), 3) // one stale call, so the counter is non-zero

	cp := ops.Clone()
	cst := cp.Get(3)
	if cst == st {
		t.Fatal("clone shares the in-flight operation's state with the original")
	}
	if cst.await != 3 || len(cst.quorum) != 3 || cst.quorum[2] != 9 {
		t.Fatalf("clone lost in-flight state: %+v", *cst)
	}

	// Clone → original.
	cst.await = 0
	if !cp.Finish(in(live), 3, 500) {
		t.Fatal("clone could not finish the copied operation")
	}
	if st.await != 3 || !ops.InFlight(3) {
		t.Fatal("mutating the clone changed the original")
	}
	if _, ok := ops.Take(live); ok {
		t.Fatal("clone's completion recorded a value in the original")
	}
	// Original → clone.
	st.await = 1
	if v, ok := ops.Take(1); !ok || v != 1 {
		t.Fatalf("original lost a spilled value: (%d,%v)", v, ok)
	}
	if v, ok := cp.Take(1); !ok || v != 1 {
		t.Fatalf("clone lost the spilled value the original consumed: (%d,%v)", v, ok)
	}
	if v, ok := cp.Take(valueRingSize + 2); !ok || v != valueRingSize+2 {
		t.Fatalf("clone lost a ring value: (%d,%v)", v, ok)
	}
	if v, ok := ops.Take(valueRingSize + 2); !ok || v != valueRingSize+2 {
		t.Fatalf("original lost the ring value the clone consumed: (%d,%v)", v, ok)
	}
	ops.Finish(in(1), 3, 0) // stale in the original only
	if o, c := ops.DroppedStale(), cp.DroppedStale(); o != 2 || c != 1 {
		t.Fatalf("dropped stale original=%d clone=%d, want 2 and 1", o, c)
	}
	if v, ok := cp.Take(live); !ok || v != 500 {
		t.Fatalf("clone's value for the copied operation = (%d,%v), want (500,true)", v, ok)
	}
	if cst.await != 0 {
		t.Fatal("mutating the original changed the clone")
	}
}

// TestOpsRejectsOutOfRangeInitiator: the slots are sized at construction,
// so an initiator outside 1..n is a caller bug, reported with the range
// rather than as a bare index panic.
func TestOpsRejectsOutOfRangeInitiator(t *testing.T) {
	ops := NewOps[int, int](4)
	for _, p := range []sim.ProcID{0, 5, 15625} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("counter: initiator %v outside the table's range [1,4]", p)
				if msg != want {
					t.Errorf("Begin(%v) panicked with %q, want %q", p, msg, want)
				}
			}()
			ops.Begin(in(1), p)
		}()
	}
	// The edges are in range.
	ops.Begin(in(1), 1)
	ops.Begin(in(2), 4)
	if !ops.InFlight(1) || !ops.InFlight(4) || ops.InFlight(3) {
		t.Fatal("InFlight wrong at the table's edges")
	}
}

// TestOpsConcurrentInitiators: slots are not locked, because slot p is only
// ever touched in processor p's context. One goroutine per initiator — each
// standing for its processor's worker — runs Begin, GetFor and Finish while
// a taker consumes the values as they appear; every value arrives exactly
// once. Run under -race, this checks the confinement the table relies on.
func TestOpsConcurrentInitiators(t *testing.T) {
	const n, perInitiator = 8, 500
	ops := NewOps[int, int](n)
	var wg sync.WaitGroup
	ids := make(chan sim.OpID, n*perInitiator)
	for p := 1; p <= n; p++ {
		wg.Add(1)
		go func(p sim.ProcID) {
			defer wg.Done()
			for i := range perInitiator {
				id := sim.OpID(int(p) + n*i) // distinct across initiators
				*ops.Begin(in(id), p) = int(id)
				st, ok := ops.GetFor(in(id), p)
				if !ok || *st != int(id) {
					t.Errorf("initiator %v: GetFor in its own operation = (%v, %v)", p, st, ok)
					return
				}
				if _, ok := ops.GetFor(in(id+1), p); ok {
					t.Errorf("initiator %v: GetFor in a foreign context was accepted", p)
					return
				}
				if !ops.Finish(in(id), p, int(id)*3) {
					t.Errorf("initiator %v: Finish of operation %d refused", p, id)
					return
				}
				ids <- id
			}
		}(sim.ProcID(p))
	}
	go func() { wg.Wait(); close(ids) }()
	seen := make(map[sim.OpID]bool, n*perInitiator)
	for id := range ids {
		v, ok := ops.Take(id)
		if !ok || v != int(id)*3 {
			t.Fatalf("Take(%d) = (%d, %v), want (%d, true)", id, v, ok, int(id)*3)
		}
		if seen[id] {
			t.Fatalf("operation %d delivered twice", id)
		}
		seen[id] = true
		if _, ok := ops.Take(id); ok {
			t.Fatalf("Take(%d) returned a value twice", id)
		}
	}
	if len(seen) != n*perInitiator {
		t.Fatalf("%d values taken, want %d", len(seen), n*perInitiator)
	}
	if got := ops.DroppedStale(); got != n*perInitiator {
		t.Fatalf("dropped stale = %d, want %d (one foreign GetFor per operation)", got, n*perInitiator)
	}
}
