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

// The service-cost emulation, held to what internal/sim's servicetime tests
// hold the simulator to — in wall time, so the bounds are never-early ones
// or orders of events, and the few upper bounds are several service costs
// wide.

// arrivals records, per receiving processor, when each network message was
// delivered, on the runtime's clock.
type arrivals struct {
	mu sync.Mutex
	at [][]int64 // 1..n
}

func (a *arrivals) Deliver(nw sim.Transport, msg sim.Message) {
	now := nw.Now()
	a.mu.Lock()
	a.at[msg.To] = append(a.at[msg.To], now)
	a.mu.Unlock()
}

// costAt is a service profile charging cost ticks at the listed processors
// and nothing elsewhere.
func costAt(cost int64, procs ...sim.ProcID) Option {
	return WithServiceProfile(func(p sim.ProcID) int64 {
		for _, q := range procs {
			if p == q {
				return cost
			}
		}
		return 0
	})
}

// fanIn builds an n-processor runtime whose every operation sends burst
// messages to each of targets, and runs one such operation from each of
// initiators at once. It returns the delivery times per processor and the
// instant, on the runtime's clock, before the first operation started.
func fanIn(t *testing.T, n, burst int, targets, initiators []sim.ProcID, opts ...Option) (at [][]int64, t0 int64, r *Runtime) {
	t.Helper()
	log := &arrivals{at: make([][]int64, n+1)}
	r = New(schedMachine(n, func(nw counter.Transport, _ sim.ProcID) {
		for i := 0; i < burst; i++ {
			for _, to := range targets {
				nw.Send(to, &note{})
			}
		}
	}, log.Deliver), opts...)
	t.Cleanup(r.Close)
	t0 = r.NowNs()
	incAll(t, r, 1, initiators...)
	return log.at, t0, r
}

// TestServiceTimeSerializesReceiver: six messages converging on a processor
// of cost c are served one per c of wall time — each delivery at least c
// after the one before, the last at least 6c after the start — where without
// a cost they have all landed before that.
func TestServiceTimeSerializesReceiver(t *testing.T) {
	const (
		cost = 5000 // ticks of 1 µs
		c    = cost * int64(DefaultTick)
	)
	senders := []sim.ProcID{2, 3, 4}
	instant, t0, _ := fanIn(t, 4, 2, []sim.ProcID{1}, senders)
	if got := instant[1]; len(got) != 6 {
		t.Fatalf("without a service cost: %d of 6 deliveries", len(got))
	} else if last := got[5] - t0; last >= 6*c {
		t.Fatalf("without a service cost the last delivery came %v after the start", time.Duration(last))
	}
	spaced, t0, _ := fanIn(t, 4, 2, []sim.ProcID{1}, senders, costAt(cost, 1))
	got := spaced[1]
	if len(got) != 6 {
		t.Fatalf("%d of 6 deliveries", len(got))
	}
	prev := t0
	for i, at := range got {
		if at-prev < c {
			t.Errorf("delivery %d came %v after the previous one, want >= %v", i, time.Duration(at-prev), time.Duration(c))
		}
		prev = at
	}
}

// TestServiceTimeHeterogeneousProfile: processor 1 slow, processor 2 free,
// the same traffic to both. The free one has absorbed all of its messages
// while the slow one is still serving — the queue forms in front of the slow
// processor — and both end with the same receive load.
func TestServiceTimeHeterogeneousProfile(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a second worker to serve the free processor meanwhile")
	}
	const (
		burst = 4
		cost  = 5000 // ticks of 1 µs
		c     = cost * int64(DefaultTick)
	)
	at, t0, r := fanIn(t, 4, burst, []sim.ProcID{1, 2}, []sim.ProcID{3, 4}, costAt(cost, 1))
	slow, free := at[1], at[2]
	if len(slow) != 2*burst || len(free) != 2*burst {
		t.Fatalf("%d and %d deliveries, want %d each", len(slow), len(free), 2*burst)
	}
	if last := slow[len(slow)-1] - t0; last < 2*burst*c {
		t.Errorf("the slow processor served %d messages in %v, want >= %v", 2*burst, time.Duration(last), time.Duration(2*burst*c))
	}
	served := 0
	for _, s := range slow {
		if s <= free[len(free)-1] {
			served++
		}
	}
	if served >= 2*burst {
		t.Errorf("the free processor finished only after the slow one had served all %d of its messages", 2*burst)
	}
	if _, recv := r.Loads(); recv[1] != 2*burst || recv[2] != 2*burst {
		t.Errorf("recv loads = %v, want %d at processors 1 and 2", recv, 2*burst)
	}
}

// TestServiceTimeOverlapsAcrossProcessors: two processors of cost c serve
// ten messages each at the same time, on two workers: neither is done before
// 10c, and each serves its first message before the other has served its
// last — with the two busy periods back to back on one worker, the second
// processor's first delivery would follow the first one's last. An order of
// events, not a duration, so a loaded machine cannot bend it.
func TestServiceTimeOverlapsAcrossProcessors(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two workers")
	}
	const (
		burst = 5
		cost  = 5000 // ticks of 1 µs
		c     = cost * int64(DefaultTick)
	)
	at, t0, _ := fanIn(t, 4, burst, []sim.ProcID{1, 2}, []sim.ProcID{3, 4}, costAt(cost, 1, 2))
	for p := 1; p <= 2; p++ {
		if len(at[p]) != 2*burst {
			t.Fatalf("processor %d: %d of %d deliveries", p, len(at[p]), 2*burst)
		}
		if last := at[p][2*burst-1] - t0; last < 2*burst*c {
			t.Errorf("processor %d served %d messages in %v, want >= %v", p, 2*burst, time.Duration(last), time.Duration(2*burst*c))
		}
	}
	for p, other := 1, 2; p <= 2; p, other = p+1, other-1 {
		if at[p][0] >= at[other][2*burst-1] {
			t.Errorf("processor %d served its first message only after processor %d had served its last: the two did not overlap", p, other)
		}
	}
}

// TestServiceTimeExemptsLocalAndStarts: an operation that is one initiation
// and one local timer pays no service cost — under a 200 ms cost it is done
// long before a single one would have elapsed.
func TestServiceTimeExemptsLocalAndStarts(t *testing.T) {
	const cost = 200_000 // ticks of 1 µs
	var fired atomic.Int64
	r := New(schedMachine(2,
		func(nw counter.Transport, _ sim.ProcID) { nw.After(3, &note{}) },
		func(sim.Transport, sim.Message) { fired.Add(1) }),
		costAt(cost, 1, 2))
	defer r.Close()
	t0 := time.Now()
	if _, err := r.Inc(1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d >= cost*DefaultTick {
		t.Fatalf("a start and a local timer took %v: charged a %v service cost", d, cost*DefaultTick)
	}
	if fired.Load() != 1 {
		t.Fatalf("timer fired %d times, want 1", fired.Load())
	}
}
