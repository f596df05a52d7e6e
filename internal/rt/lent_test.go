package rt

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// A runtime that delivers into a sink lends the sink's awaiting goroutine a
// worker (Runtime.lend, Sink.Await): these tests hold the scheduler's
// contract with the driver as one of the executors.

// lentSink returns a sink over r whose watchdog never reports within a
// test, with r's completions put into it under index 0.
func lentSink(t *testing.T, r *Runtime) *Sink {
	t.Helper()
	s := NewSink(func() int64 { return r.NowNs() }, time.Hour, r)
	r.OnOpDone(func(d sim.OpDone) { s.Put(0, d) })
	t.Cleanup(s.Close)
	return s
}

// settleGoroutines waits for the goroutine count to reach want.
func settleGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedLentWorkConserving is TestSchedWorkConserving with a sink
// attached: of the two workers one has retired, the other is inside the slow
// processor's 100 ms batch, and the driver is parked in Await. A message
// sent meanwhile to idle processor 3 wakes the driver, which delivers it
// before the batch ends.
func TestSchedLentWorkConserving(t *testing.T) {
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
	s := lentSink(t, r)
	r.Start(0, 1)
	<-first // the one worker left is inside the slow processor
	idleOp := make(chan struct{})
	go func() {
		for {
			done := false
			s.Await(-1, func(_ int, d sim.OpDone) { done = done || d.Initiator == 4 })
			if done {
				close(idleOp)
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the driver park
	r.Start(0, 4)
	select {
	case done := <-seen:
		if done >= batch {
			t.Fatalf("the idle processor's message waited out the slow processor's whole batch")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the idle processor's message was never delivered")
	}
	<-idleOp
	<-batchDone
}

// TestSchedLentWorkers: a runtime that serves a sink keeps
// max(1, min(n, GOMAXPROCS) − 1) workers while the sink is open, runs its
// operations on them and the driver, gets its worker back when the sink
// closes first, and Close at quiescence leaves no goroutine either way.
func TestSchedLentWorkers(t *testing.T) {
	const n, ops = 8, 200
	for _, procs := range []int{1, 2, 4} {
		for _, sinkFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/sinkClosedFirst=%v", procs, sinkFirst), func(t *testing.T) {
				withProcs(t, procs)
				baseline := goroutineBaseline()
				r := New(schedMachine(n,
					func(nw counter.Transport, p sim.ProcID) { nw.Send(p%n+1, &note{}) },
					func(sim.Transport, sim.Message) {}))
				workers := min(n, procs)
				s := NewSink(func() int64 { return r.NowNs() }, time.Hour, r)
				r.OnOpDone(func(d sim.OpDone) { s.Put(0, d) })
				settleGoroutines(t, baseline+max(1, workers-1)+1, "sink attached")
				for done, p := 0, sim.ProcID(1); done < ops; {
					r.Start(0, p)
					for p0 := p; p == p0; {
						s.Await(-1, func(int, sim.OpDone) { done++; p = p%n + 1 })
					}
				}
				if got, want := runtime.NumGoroutine(), baseline+max(1, workers-1)+1; got != want {
					t.Errorf("after %d operations: %d goroutines, want %d", ops, got-baseline, want-baseline)
				}
				if sinkFirst {
					s.Close()
					settleGoroutines(t, baseline+workers+1, "sink closed")
					r.Close()
				} else {
					r.Close()
					s.Close()
				}
				waitGoroutines(t, baseline)
			})
		}
	}
}

// TestSchedLentPanicSurfaces: a protocol callback that panics inside a batch
// the driver runs raises the panic from Await on the driving goroutine, and
// the runtime still closes with no goroutine left.
func TestSchedLentPanicSurfaces(t *testing.T) {
	withProcs(t, 1)
	baseline := goroutineBaseline()
	entered, gate := make(chan struct{}), make(chan struct{})
	r := New(schedMachine(3,
		func(_ counter.Transport, p sim.ProcID) {
			switch p {
			case 1:
				close(entered)
				<-gate
			case 2:
				panic("protocol bug")
			}
		},
		func(sim.Transport, sim.Message) {}))
	s := NewSink(func() int64 { return r.NowNs() }, time.Hour, r)
	r.OnOpDone(func(d sim.OpDone) { s.Put(0, d) })
	r.Start(0, 1)
	<-entered // the only worker is held inside processor 1
	r.Start(0, 2)
	raised := make(chan any, 1)
	go func() {
		defer func() { raised <- recover() }()
		for s.Await(-1, func(int, sim.OpDone) {}) {
		}
	}()
	select {
	case v := <-raised:
		if v != "protocol bug" {
			t.Fatalf("Await raised %v, want the protocol's panic", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Await hung on a batch whose callback panicked")
	}
	close(gate)
	r.Close()
	s.Close()
	waitGoroutines(t, baseline)
}

// TestSchedLentArrivalWaitHelps: an open-loop wait for an arrival 300 µs
// away runs ready processors on the driver instead of only waiting. The one
// worker is held inside processor 1 throughout, so every operation below
// completes on the driver: one already ready when the wait begins, returned
// before the arrival is due, and one started by another goroutine while the
// driver waits.
func TestSchedLentArrivalWaitHelps(t *testing.T) {
	const arrival = 300 * time.Microsecond
	withProcs(t, 1)
	entered, gate := make(chan struct{}), make(chan struct{})
	r := New(schedMachine(3,
		func(nw counter.Transport, p sim.ProcID) {
			switch p {
			case 1:
				close(entered)
				<-gate
			case 2:
				nw.Send(3, &note{})
			}
		},
		func(sim.Transport, sim.Message) {}))
	defer r.Close()
	defer close(gate)
	s := lentSink(t, r)
	r.Start(0, 1)
	<-entered
	var handled []sim.ProcID
	handle := func(_ int, d sim.OpDone) { handled = append(handled, d.Initiator) }

	r.Start(0, 2)
	until := r.NowNs() + int64(arrival)
	if !s.Await(until, handle) || len(handled) != 1 || handled[0] != 2 {
		t.Fatalf("the wait for an arrival returned having handled %v, want processor 2's operation", handled)
	}
	if now := r.NowNs(); now >= until {
		t.Logf("the helped operation finished %v after the arrival was due", time.Duration(now-until))
	}

	started := make(chan struct{})
	go func() {
		r.Start(0, 3)
		close(started)
	}()
	for waits := 0; len(handled) < 2; waits++ {
		if waits == 1000 {
			t.Fatalf("processor 3's operation not handled after %d arrival waits", waits)
		}
		if !s.Await(r.NowNs()+int64(arrival), handle) {
			t.Fatal("an arrival wait reported a stall")
		}
	}
	<-started
	if handled[1] != 3 {
		t.Fatalf("handled %v, want processor 3's operation second", handled)
	}
}
