package rt_test

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/counters/central"
	"distcount/internal/counters/cnet"
	"distcount/internal/counters/combining"
	"distcount/internal/counters/difftree"
	"distcount/internal/counters/quorumctr"
	"distcount/internal/counters/tokenring"
	"distcount/internal/quorum"
	"distcount/internal/rt"
	"distcount/internal/sim"
)

// machines returns every algorithm family as a backend-independent machine
// over (at least) n processors, windows open for the request-merging
// schemes.
func machines(n int) []counter.Machine {
	return []counter.Machine{
		central.NewMachine(n),
		tokenring.NewMachine(n),
		core.NewMachine(n),
		combining.NewMachine(n, combining.WithWindow(4)),
		difftree.NewMachine(n, difftree.WithWindow(4)),
		cnet.NewMachine(n),
		quorumctr.NewMachine(quorum.NewMajority(n)),
	}
}

// TestSequentialInc runs each machine one synchronous increment at a time —
// the paper's sequential model — and expects the values 0..ops-1 in order
// (every algorithm is sequentially correct).
func TestSequentialInc(t *testing.T) {
	const n, ops = 8, 24
	for _, m := range machines(n) {
		t.Run(m.Name, func(t *testing.T) {
			r := rt.New(m)
			defer r.Close()
			for i := 0; i < ops; i++ {
				p := sim.ProcID(i%r.N() + 1)
				got, err := r.Inc(p)
				if err != nil {
					t.Fatalf("inc %d by %v: %v", i, p, err)
				}
				if got != i {
					t.Fatalf("inc %d by %v: got %d", i, p, got)
				}
			}
		})
	}
}

// TestConcurrentOps starts one operation per processor at once — real
// concurrency, real interleavings — and checks that every operation
// completes and yields a value. Value-correctness under concurrency is the
// cross-backend equivalence test's business (internal/registry); here the
// runtime's accounting is under test.
func TestConcurrentOps(t *testing.T) {
	const n = 8
	for _, m := range machines(n) {
		t.Run(m.Name, func(t *testing.T) {
			r := rt.New(m)
			defer r.Close()
			var (
				mu   sync.Mutex
				done = make(chan struct{})
				ids  []sim.OpID
			)
			r.OnOpDone(func(d sim.OpDone) {
				mu.Lock()
				ids = append(ids, d.ID)
				if len(ids) == r.N() {
					close(done)
				}
				mu.Unlock()
			})
			for p := 1; p <= r.N(); p++ {
				r.Start(0, sim.ProcID(p))
			}
			<-done
			mu.Lock()
			defer mu.Unlock()
			vals := make([]int, 0, len(ids))
			for _, id := range ids {
				v, ok := r.OpValue(id)
				if !ok {
					t.Fatalf("op %d completed without a value", id)
				}
				vals = append(vals, v)
			}
			sort.Ints(vals)
			for i, v := range vals[:len(vals)-1] {
				if vals[i+1] == v {
					t.Logf("duplicate value %d (claimed level %v)", v, m.Guarantee)
					break
				}
			}
			if r.Ops() != r.N() {
				t.Fatalf("Ops() = %d, want %d", r.Ops(), r.N())
			}
			if r.MessagesTotal() == 0 {
				t.Fatalf("no messages counted")
			}
		})
	}
}

// TestLoadsAccounting checks that the central counter's bottleneck shows up
// in the rt load counters just as it does in the simulator: the holder's
// receive count equals the number of requests from other processors.
func TestLoadsAccounting(t *testing.T) {
	const n, ops = 4, 12
	r := rt.New(central.NewMachine(n))
	defer r.Close()
	for i := 0; i < ops; i++ {
		if _, err := r.Inc(sim.ProcID(i%(n-1) + 2)); err != nil { // never the holder
			t.Fatal(err)
		}
	}
	sent, recv := r.Loads(nil, nil)
	if recv[1] != ops {
		t.Errorf("holder recv = %d, want %d", recv[1], ops)
	}
	if sent[1] != ops {
		t.Errorf("holder sent = %d, want %d", sent[1], ops)
	}
}

// wake is the timer suite's payload: id names the wakeup, due is the
// deadline it was scheduled for, in runtime nanoseconds.
type wake struct {
	id  int
	due int64
}

func (wake) Kind() string { return "wake" }

// firing is one delivered wake, and how long after its deadline it came.
type firing struct {
	id     int
	lateNs int64
}

// wakeLog is a protocol that records every delivered wake.
type wakeLog struct {
	mu     sync.Mutex
	fired  []firing
	notify chan struct{} // when non-nil, receives one token per firing
}

func (l *wakeLog) Deliver(nw sim.Transport, msg sim.Message) {
	w := msg.Payload.(wake)
	l.mu.Lock()
	l.fired = append(l.fired, firing{id: w.id, lateNs: nw.Now() - w.due})
	l.mu.Unlock()
	if l.notify != nil {
		l.notify <- struct{}{}
	}
}

func (l *wakeLog) snapshot() []firing {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]firing(nil), l.fired...)
}

// timerMachine is a machine whose operations are whatever initiate schedules.
func timerMachine(n int, proto sim.Protocol, initiate func(nw counter.Transport, p sim.ProcID)) counter.Machine {
	return counter.Machine{
		Name: "timers", N: n, Proto: proto, Initiate: initiate,
		Value:     func(sim.OpID) (int, bool) { return 0, true },
		Guarantee: counter.Exact(counter.Linearizable),
	}
}

// after schedules an attributed wake delay ticks ahead, stamped with its
// deadline.
func after(nw sim.Transport, tick time.Duration, delay int64, id int) {
	nw.After(delay, wake{id: id, due: nw.Now() + delay*tick.Nanoseconds()})
}

// TestAfterNeverEarlyAndOrdered: wakeups scheduled out of order — due at
// once, inside the spin horizon and beyond it (the clock sleeps on its
// time.Timer first) — are each delivered no earlier than asked, in deadline
// order.
func TestAfterNeverEarlyAndOrdered(t *testing.T) {
	delays := []int64{4000, 0, 300, 2500, 50, 900} // ticks of 1 µs
	log := &wakeLog{}
	r := rt.New(timerMachine(1, log, func(nw counter.Transport, _ sim.ProcID) {
		for id, d := range delays {
			after(nw, rt.DefaultTick, d, id)
		}
	}))
	defer r.Close()
	if _, err := r.Inc(1); err != nil {
		t.Fatal(err)
	}
	fired := log.snapshot()
	if len(fired) != len(delays) {
		t.Fatalf("%d of %d wakeups delivered", len(fired), len(delays))
	}
	for i, f := range fired {
		if f.lateNs < 0 {
			t.Errorf("wakeup %d (delay %d ticks) fired %d ns early", f.id, delays[f.id], -f.lateNs)
		}
		if i > 0 && delays[fired[i-1].id] > delays[f.id] {
			t.Errorf("wakeup %d (delay %d) delivered after wakeup %d (delay %d)",
				f.id, delays[f.id], fired[i-1].id, delays[fired[i-1].id])
		}
	}
}

// TestEqualDeadlinesKeepScheduleOrder: wakeups of one processor scheduled
// back to back with the same delay have non-decreasing deadlines — equal
// ones whenever the clock reads the same nanosecond twice — and must be
// delivered in the order they were scheduled, the simulator's (at, seq)
// rule.
func TestEqualDeadlinesKeepScheduleOrder(t *testing.T) {
	const timers = 200
	log := &wakeLog{}
	r := rt.New(timerMachine(1, log, func(nw counter.Transport, _ sim.ProcID) {
		for id := 0; id < timers; id++ {
			after(nw, rt.DefaultTick, 100, id)
		}
	}))
	defer r.Close()
	if _, err := r.Inc(1); err != nil {
		t.Fatal(err)
	}
	fired := log.snapshot()
	if len(fired) != timers {
		t.Fatalf("%d of %d wakeups delivered", len(fired), timers)
	}
	for i, f := range fired {
		if f.id != i {
			t.Fatalf("delivery %d is wakeup %d: schedule order lost", i, f.id)
		}
	}
}

// TestEarlierDeadlinePreemptsSleepingClock: while the clock sleeps on its
// time.Timer towards a deadline far beyond the spin horizon, a wakeup
// scheduled later but due sooner must still be delivered on time (the wake
// path), and the far one must then fire on time too (the sleep-then-spin
// path).
func TestEarlierDeadlinePreemptsSleepingClock(t *testing.T) {
	const far, near = 150_000, 200 // ticks of 1 µs: 150 ms and 200 µs
	log := &wakeLog{notify: make(chan struct{}, 2)}
	r := rt.New(timerMachine(2, log, func(nw counter.Transport, p sim.ProcID) {
		if p == 1 {
			after(nw, rt.DefaultTick, far, far)
		} else {
			after(nw, rt.DefaultTick, near, near)
		}
	}))
	defer r.Close()
	r.Start(0, 1)
	time.Sleep(10 * time.Millisecond) // let the clock go to sleep on the far deadline
	r.Start(0, 2)
	for i := 0; i < 2; i++ {
		select {
		case <-log.notify:
		case <-time.After(10 * time.Second):
			t.Fatalf("wakeup %d of 2 never delivered", i+1)
		}
	}
	fired := log.snapshot()
	if fired[0].id != near || fired[1].id != far {
		t.Fatalf("delivery order %d, %d: the near wakeup did not preempt the far one", fired[0].id, fired[1].id)
	}
	for _, f := range fired {
		if f.lateNs < 0 {
			t.Errorf("wakeup %d fired %d ns early", f.id, -f.lateNs)
		}
		// Unpreempted, the near wakeup would wait out the far sleep (≈140 ms
		// late); the bound leaves room for a loaded, race-instrumented box.
		if f.lateNs > (50 * time.Millisecond).Nanoseconds() {
			t.Errorf("wakeup %d fired %v late", f.id, time.Duration(f.lateNs))
		}
	}
}

// ping is a network message of the frozen-crash test.
type ping struct{ id int }

func (ping) Kind() string { return "ping" }

// pingLog records network deliveries in order, with the runtime clock.
type pingLog struct {
	mu  sync.Mutex
	ids []int
	at  []int64
}

func (l *pingLog) Deliver(nw sim.Transport, msg sim.Message) {
	l.mu.Lock()
	l.ids = append(l.ids, msg.Payload.(ping).id)
	l.at = append(l.at, nw.Now())
	l.mu.Unlock()
}

// TestFrozenDeliveriesReturnAfterRecovery: messages reaching a processor
// inside a frozen crash window are held by the clock until the window ends
// and then delivered — all with the same deadline, so in their arrival
// order — and the operation completes.
func TestFrozenDeliveriesReturnAfterRecovery(t *testing.T) {
	const (
		tick   = time.Millisecond
		upAt   = 150 // ticks
		frozen = 5
	)
	log := &pingLog{}
	r := rt.New(timerMachine(2, log, func(nw counter.Transport, _ sim.ProcID) {
		for id := 0; id < frozen; id++ {
			nw.Send(2, ping{id: id})
		}
	}), rt.WithTick(tick), rt.WithFaults(sim.FaultPlan{
		Crashes: []sim.Downtime{{Proc: 2, From: 0, To: upAt}},
		Freeze:  true,
	}))
	defer r.Close()
	if _, err := r.Inc(1); err != nil {
		t.Fatal(err)
	}
	if fs := r.FaultStats(); fs.CrashDeferred != frozen || fs.CrashDropped != 0 {
		t.Fatalf("fault stats = %+v, want %d deferred deliveries", fs, frozen)
	}
	if len(log.ids) != frozen {
		t.Fatalf("%d of %d frozen messages delivered", len(log.ids), frozen)
	}
	for i, id := range log.ids {
		if id != i {
			t.Errorf("delivery %d is message %d: arrival order lost across the freeze", i, id)
		}
		if log.at[i] < (upAt * tick).Nanoseconds() {
			t.Errorf("message %d delivered at %v, before recovery at %v", id, time.Duration(log.at[i]), upAt*tick)
		}
	}
}

// TestCrashCancelsLocalTimer: a local timer coming due at a down processor
// is cancelled and counted, even under Freeze — crashes lose soft state —
// and its operation wedges (sim.TestCrashCancelsTimers on real time).
func TestCrashCancelsLocalTimer(t *testing.T) {
	const tick = time.Millisecond
	log := &wakeLog{}
	done := make(chan sim.OpDone, 1)
	r := rt.New(timerMachine(2, log, func(nw counter.Transport, _ sim.ProcID) {
		after(nw, tick, 200, 0) // due inside the crash window
	}), rt.WithTick(tick), rt.WithFaults(sim.FaultPlan{
		Crashes: []sim.Downtime{{Proc: 1, From: 100, To: 100_000}},
		Freeze:  true,
	}))
	defer r.Close()
	r.OnOpDone(func(d sim.OpDone) { done <- d })
	r.Start(0, 1)
	for deadline := time.Now().Add(10 * time.Second); r.FaultStats().TimersCancelled == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("timer never cancelled: %+v", r.FaultStats())
		}
		time.Sleep(time.Millisecond)
	}
	if fs := r.FaultStats(); fs.TimersCancelled != 1 || fs.CrashDeferred != 0 {
		t.Fatalf("fault stats = %+v, want one cancelled timer", fs)
	}
	if fired := log.snapshot(); len(fired) != 0 {
		t.Fatalf("timer at a crashed processor fired: %+v", fired)
	}
	select {
	case d := <-done:
		t.Fatalf("operation whose timer was cancelled completed: %+v", d)
	default:
	}
}

// TestAfterSlop: on an idle runtime a 256-tick merge window costs what it
// asks for. The median lateness of 50 such wakeups was ≈860 µs when timers
// rode time.AfterFunc (Go parks its last idle thread in a whole-millisecond
// epoll_wait); the clock goroutine delivers them within microseconds.
func TestAfterSlop(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	const window, samples = 256, 50
	log := &wakeLog{}
	r := rt.New(timerMachine(1, log, func(nw counter.Transport, _ sim.ProcID) {
		after(nw, rt.DefaultTick, window, 0)
	}))
	defer r.Close()
	for i := 0; i < samples; i++ {
		if _, err := r.Inc(1); err != nil {
			t.Fatal(err)
		}
	}
	fired := log.snapshot()
	sort.Slice(fired, func(i, j int) bool { return fired[i].lateNs < fired[j].lateNs })
	if fired[0].lateNs < 0 {
		t.Fatalf("a wakeup fired %d ns early", -fired[0].lateNs)
	}
	if p50 := time.Duration(fired[samples/2].lateNs); p50 >= 300*time.Microsecond {
		t.Fatalf("median lateness of a %d-tick After is %v, want < 300µs", window, p50)
	}
}

// relay is a payload that re-arms itself: each delivery schedules the next
// hop until none are left. It is passed by pointer, so boxing it into a
// sim.Payload allocates nothing.
type relay struct{ left int }

func (*relay) Kind() string { return "relay" }

type relayProto struct{}

func (relayProto) Deliver(nw sim.Transport, msg sim.Message) {
	if c := msg.Payload.(*relay); c.left > 0 {
		c.left--
		nw.After(1, c)
	}
}

// TestAfterAllocs guards the steady-state After → delivery round trip: a
// wakeup is copied into the deadline heap and back out into a mailbox, with
// no timer object, closure or map entry of its own. The budget is the
// operation's own bookkeeping (record, completion channel, table entry)
// spread over its hops.
func TestAfterAllocs(t *testing.T) {
	const hops = 1000
	c := &relay{}
	r := rt.New(timerMachine(1, relayProto{}, func(nw counter.Transport, _ sim.ProcID) {
		c.left = hops - 1
		nw.After(1, c)
	}))
	defer r.Close()
	run := func() {
		if _, err := r.Inc(1); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the heap, the due batch and the mailbox once
	if perHop := testing.AllocsPerRun(10, run) / hops; perHop > 0.05 {
		t.Fatalf("After → delivery allocates %.3f objects per wakeup, want ~0 (three with time.AfterFunc)", perHop)
	}
}

// bounce is a payload two processors pass back and forth until no hops are
// left; passed by pointer, like relay.
type bounce struct{ left int }

func (*bounce) Kind() string { return "bounce" }

type bounceProto struct{}

func (bounceProto) Deliver(nw sim.Transport, msg sim.Message) {
	if c := msg.Payload.(*bounce); c.left > 0 {
		c.left--
		nw.Send(msg.From, c)
	}
}

// TestSchedReadyEdgeAllocs guards the steady-state message to an idle processor:
// the mailbox's empty→non-empty edge puts the processor on the ready list
// and a worker takes it off, in a ring and two recycled batch slices — no
// list node, channel or closure per edge.
func TestSchedReadyEdgeAllocs(t *testing.T) {
	const hops = 1000
	c := &bounce{}
	r := rt.New(timerMachine(2, bounceProto{}, func(nw counter.Transport, _ sim.ProcID) {
		c.left = hops - 1
		nw.Send(2, c)
	}))
	defer r.Close()
	run := func() {
		if _, err := r.Inc(1); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow both mailboxes once
	if perHop := testing.AllocsPerRun(10, run) / hops; perHop > 0.05 {
		t.Fatalf("a message to an idle processor allocates %.3f objects, want ~0", perHop)
	}
}

// TestCloseCancelsPendingTimers: Close with attributed and detached timers
// pending — one pair near enough that the clock is awake for it, one far
// enough that it sleeps — returns promptly, delivers nothing afterwards and
// leaves no goroutine behind.
func TestCloseCancelsPendingTimers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	log := &wakeLog{}
	armed := make(chan struct{})
	r := rt.New(timerMachine(2, log, func(nw counter.Transport, p sim.ProcID) {
		delay := int64(60_000) // ticks of 1 µs: 60 ms
		if p == 2 {
			delay = 3_600_000_000 // an hour
		}
		after(nw, rt.DefaultTick, delay, int(p))
		nw.AfterDetached(delay, wake{id: -int(p)})
		armed <- struct{}{}
	}))
	r.Start(0, 1)
	r.Start(0, 2)
	<-armed
	<-armed
	t0 := time.Now()
	r.Close()
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("Close took %v with timers pending", d)
	}
	time.Sleep(120 * time.Millisecond) // past the near pair's deadline
	if fired := log.snapshot(); len(fired) != 0 {
		t.Fatalf("wakeups delivered after Close: %+v", fired)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
