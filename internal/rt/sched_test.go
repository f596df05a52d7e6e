package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// The scheduler's contract (rt.go, "Execution model"), one test per clause:
// a processor runs on one worker at a time, a sender's messages reach a
// receiver in send order, no worker sleeps while a processor is ready, a
// processor that always has mail does not starve the others, and Close
// releases every goroutine.

// note is the scheduler suite's payload: message seq of its sender, or a
// relay with hops left to go.
type note struct{ seq, hops int }

func (*note) Kind() string { return "note" }

// schedMachine is a machine whose operations are whatever initiate does and
// whose deliveries go to deliver.
func schedMachine(n int, initiate func(nw counter.Transport, p sim.ProcID), deliver func(nw sim.Transport, msg sim.Message)) counter.Machine {
	return counter.Machine{
		Name: "sched", N: n, Proto: deliverFunc(deliver), Initiate: initiate,
		Value:     func(sim.OpID) (int, bool) { return 0, true },
		Guarantee: counter.Exact(counter.Linearizable),
	}
}

type deliverFunc func(nw sim.Transport, msg sim.Message)

func (f deliverFunc) Deliver(nw sim.Transport, msg sim.Message) { f(nw, msg) }

// withProcs runs the rest of the test with GOMAXPROCS set to procs — the
// worker count a Runtime built meanwhile gets.
func withProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// incAll runs rounds synchronous operations from each of the given
// initiators, one goroutine per initiator.
func incAll(t *testing.T, r *Runtime, rounds int, initiators ...sim.ProcID) {
	t.Helper()
	var wg sync.WaitGroup
	for _, p := range initiators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := r.Inc(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSchedExclusive: with four workers, four concurrent senders and every
// processor both sending and receiving, a handler never finds another one
// inside its processor. Each callback raises its processor's flag, lingers
// and lowers it; the deliveries also forward, so processors become ready
// again while they are still running — the window in which a second worker
// could be let in.
func TestSchedExclusive(t *testing.T) {
	const n, rounds, hops = 8, 200, 6
	withProcs(t, 4)
	var (
		inside   [n + 1]atomic.Bool
		overlaps atomic.Int64
		handled  atomic.Int64
	)
	enter := func(p sim.ProcID) {
		if !inside[p].CompareAndSwap(false, true) {
			overlaps.Add(1)
		}
		runtime.Gosched() // linger: let another worker reach this processor
		handled.Add(1)
		inside[p].Store(false)
	}
	r := New(schedMachine(n,
		func(nw counter.Transport, p sim.ProcID) {
			enter(p)
			for to := sim.ProcID(1); to <= n; to++ {
				nw.Send(to, &note{hops: hops})
			}
		},
		func(nw sim.Transport, msg sim.Message) {
			enter(msg.To)
			if m := msg.Payload.(*note); m.hops > 0 {
				m.hops--
				nw.Send(msg.To%n+1, m)
			}
		}))
	defer r.Close()
	incAll(t, r, rounds, 1, 2, 3, 4)
	if got := overlaps.Load(); got != 0 {
		t.Fatalf("%d of %d callbacks ran while another was inside the same processor", got, handled.Load())
	}
	if want := int64(4 * rounds * (1 + n*(hops+1))); handled.Load() != want {
		t.Fatalf("%d callbacks ran, want %d", handled.Load(), want)
	}
}

// TestSchedPerSenderFIFO: four senders each stream numbered messages at one
// receiver, which itself keeps re-entering the ready list; every sender's
// numbers arrive in the order they were sent.
func TestSchedPerSenderFIFO(t *testing.T) {
	const n, rounds, burst, receiver = 8, 50, 40, 8
	withProcs(t, 4)
	var (
		next    [n + 1]int // per sender: the number expected next; written at the receiver only
		sent    [n + 1]int // per sender: numbers issued so far; written at that sender only
		reorder atomic.Int64
	)
	r := New(schedMachine(n,
		func(nw counter.Transport, p sim.ProcID) {
			for i := 0; i < burst; i++ {
				nw.Send(receiver, &note{seq: sent[p]})
				sent[p]++
			}
		},
		func(_ sim.Transport, msg sim.Message) {
			if m := msg.Payload.(*note); m.seq != next[msg.From] {
				reorder.Add(1)
			}
			next[msg.From]++
		}))
	defer r.Close()
	incAll(t, r, rounds, 1, 2, 3, 4)
	if got := reorder.Load(); got != 0 {
		t.Fatalf("%d messages overtook an earlier one of their sender", got)
	}
	for p := 1; p <= 4; p++ {
		if next[p] != rounds*burst {
			t.Fatalf("receiver saw %d messages of sender %d, want %d", next[p], p, rounds*burst)
		}
	}
}

// TestSchedWorkConserving: two workers, one of them spinning out a 100 ms
// batch of service cost at processor 2. A message sent meanwhile to idle
// processor 3 is the other worker's business and must be delivered before
// that batch ends.
func TestSchedWorkConserving(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two workers")
	}
	const (
		slow, idle = 2, 3
		batch      = 5
		cost       = 20_000 // ticks of 1 µs: 20 ms a message
	)
	withProcs(t, 2)
	var slowDone atomic.Int64
	first := make(chan struct{}, 1)     // the slow processor's first delivery
	seen := make(chan int64, 1)         // slow deliveries done when the idle one ran
	batchDone := make(chan struct{}, 1) // the slow batch's last delivery
	r := New(schedMachine(4,
		func(nw counter.Transport, p sim.ProcID) {
			if p == 1 {
				for i := 0; i < batch; i++ {
					nw.Send(slow, &note{})
				}
			} else {
				nw.Send(idle, &note{})
			}
		},
		func(_ sim.Transport, msg sim.Message) {
			switch msg.To {
			case slow:
				switch slowDone.Add(1) {
				case 1:
					first <- struct{}{}
				case batch:
					batchDone <- struct{}{}
				}
			case idle:
				seen <- slowDone.Load()
			}
		}),
		WithServiceProfile(func(p sim.ProcID) int64 {
			if p == slow {
				return cost
			}
			return 0
		}))
	defer r.Close()
	r.StartNow(1)
	<-first // a worker is inside the slow processor, four messages to go
	r.StartNow(4)
	select {
	case done := <-seen:
		if done >= batch {
			t.Fatalf("the idle processor's message waited out the slow processor's whole batch")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the idle processor's message was never delivered")
	}
	<-batchDone
}

// TestSchedFairWithOneWorker: one worker, and a processor that sends itself
// a new message from every delivery, so its mailbox is never empty when its
// batch ends. It goes to the tail of the ready list each time, so a second
// processor's operation still runs.
func TestSchedFairWithOneWorker(t *testing.T) {
	withProcs(t, 1)
	var stop atomic.Bool
	hogDone := make(chan struct{})
	r := New(schedMachine(2,
		func(nw counter.Transport, p sim.ProcID) {
			if p == 1 {
				nw.Send(1, &note{})
			}
		},
		func(nw sim.Transport, msg sim.Message) {
			if !stop.Load() {
				nw.Send(1, msg.Payload)
			}
		}))
	defer r.Close()
	r.OnOpDone(func(d OpDone) {
		if d.Initiator == 1 {
			close(hogDone)
		}
	})
	r.StartNow(1)
	other := make(chan error, 1)
	go func() {
		_, err := r.Inc(2)
		other <- err
	}()
	select {
	case err := <-other:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a processor that always has mail starved the other one")
	}
	stop.Store(true)
	<-hogDone
}

// goroutineBaseline counts the goroutines alive once the count has stopped
// falling: workers of an earlier test's runtime may still be on their way out.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for calm := 0; calm < 5; calm++ {
		time.Sleep(time.Millisecond)
		if now := runtime.NumGoroutine(); now != n {
			n, calm = now, 0
		}
	}
	return n
}

// waitGoroutines waits for the goroutine count to fall back to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedCloseAtQuiescence: a runtime owns min(n, GOMAXPROCS) workers and
// the clock, and Close at quiescence takes them all down.
func TestSchedCloseAtQuiescence(t *testing.T) {
	withProcs(t, 4)
	baseline := goroutineBaseline()
	for _, n := range []int{2, 8} {
		r := New(schedMachine(n,
			func(nw counter.Transport, p sim.ProcID) { nw.Send(p%sim.ProcID(n)+1, &note{}) },
			func(sim.Transport, sim.Message) {}))
		if got, want := runtime.NumGoroutine()-baseline, min(n, 4)+1; got != want {
			t.Errorf("n=%d: runtime started %d goroutines, want %d", n, got, want)
		}
		incAll(t, r, 20, 1, 2)
		r.Close()
		waitGoroutines(t, baseline)
	}
}

// TestSchedCloseWithReadyProcessors: Close while the only worker is held
// inside a handler and two more processors wait on the ready list returns as
// soon as the handler does; the waiting processors are abandoned, not run.
func TestSchedCloseWithReadyProcessors(t *testing.T) {
	withProcs(t, 1)
	baseline := goroutineBaseline()
	entered, gate := make(chan struct{}), make(chan struct{})
	var ran atomic.Int64
	r := New(schedMachine(3,
		func(_ counter.Transport, p sim.ProcID) {
			if p == 1 {
				close(entered)
				<-gate
			} else {
				ran.Add(1)
			}
		},
		func(sim.Transport, sim.Message) {}))
	r.StartNow(1)
	<-entered
	r.StartNow(2)
	r.StartNow(3)
	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	waiting := -1
	for ; waiting < 0; runtime.Gosched() {
		r.ready.mu.Lock()
		if r.ready.closed {
			waiting = r.ready.size
		}
		r.ready.mu.Unlock()
	}
	if waiting != 2 {
		t.Fatalf("%d processors on the ready list at Close, want 2", waiting)
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with processors on the ready list")
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d processors ran after Close", got)
	}
	waitGoroutines(t, baseline)
}
