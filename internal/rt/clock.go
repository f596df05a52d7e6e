package rt

import (
	"runtime"
	"sync"
	"time"

	"distcount/internal/sim"
)

// spinHorizon is how close a deadline must be before waiting for it stops
// sleeping and starts yield-spinning. Go parks its last idle thread in an
// epoll_wait whose timeout is rounded up to whole milliseconds, so a
// time.Timer armed for d fires 0.3–1.1 ms late (p99 ≈1.5 ms on a shared
// 2-vCPU box) however small d is. Sleeping only until the horizon and
// spinning through it makes a wait cost what it asks for; the price is one
// core's worth of runtime.Gosched calls while — and only while — a deadline
// is inside the horizon.
const spinHorizon = 1500 * time.Microsecond

// waitFor receives from ch for at most d of wall time and reports whether a
// value arrived. It is the one wall-clock wait of the rt backend, shared by
// the runtime's clock goroutine and Sink.Await's wait for an arrival:
// beyond spinHorizon it sleeps on t, inside it it polls ch between
// runtime.Gosched calls, so the deadline is met within microseconds without
// starving runnable goroutines. A non-nil help replaces the Gosched call
// whenever it finds work: the sink's driver runs ready processors while an
// arrival is about to come due. t is the caller's reusable timer, stopped
// on entry; it is stopped and drained again on every return.
func waitFor[T any](t *time.Timer, ch <-chan T, d time.Duration, help func() bool) (v T, ok bool) {
	deadline := time.Now().Add(d)
	if d > spinHorizon {
		t.Reset(d - spinHorizon)
		select {
		case v = <-ch:
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			return v, true
		case <-t.C:
		}
	}
	for {
		select {
		case v = <-ch:
			return v, true
		default:
		}
		if !time.Now().Before(deadline) {
			return v, false
		}
		if help == nil || !help() {
			runtime.Gosched()
		}
	}
}

// wakeup is one pending timer: item re-enters processor p's mailbox once
// the runtime's clock reads at.
type wakeup struct {
	at  int64  // deadline, nanoseconds since the runtime started
	seq uint64 // schedule order, the tie-break among equal deadlines
	p   sim.ProcID
	it  item
}

// clock is a runtime's timer service: a min-heap of wakeups ordered by
// (at, seq) — the simulator's event order — served by one goroutine
// (Runtime.runClock). Scheduling a wakeup copies it into the heap and
// nothing else: no timer object, closure or map entry per After.
type clock struct {
	mu     sync.Mutex
	heap   []wakeup
	seq    uint64
	closed bool
	// wake tells the clock goroutine that the nearest deadline moved earlier
	// (or that the clock closed). One slot suffices: a pending token already
	// makes the goroutine re-read the heap.
	wake chan struct{}
}

func (w *wakeup) before(o *wakeup) bool {
	return w.at < o.at || (w.at == o.at && w.seq < o.seq)
}

// schedule adds a wakeup for it at processor p, due at at. After close it is
// dropped — only detached maintenance work can still be in motion then.
func (c *clock) schedule(at int64, p sim.ProcID, it item) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.seq++
	c.heap = append(c.heap, wakeup{at: at, seq: c.seq, p: p, it: it})
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.heap[i].before(&c.heap[parent]) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
	c.mu.Unlock()
	if i == 0 {
		c.signal()
	}
}

// pop removes and returns the nearest wakeup. The caller holds c.mu and has
// checked that the heap is not empty.
func (c *clock) pop() wakeup {
	h := c.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = wakeup{} // drop the payload and opRec references
	h = h[:last]
	for i := 0; ; {
		least := i
		for child := 2*i + 1; child <= 2*i+2 && child < last; child++ {
			if h[child].before(&h[least]) {
				least = child
			}
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	c.heap = h
	return top
}

func (c *clock) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// close drops every pending wakeup and releases the clock goroutine.
func (c *clock) close() {
	c.mu.Lock()
	c.closed = true
	c.heap = nil
	c.mu.Unlock()
	c.signal()
}

// runClock is the clock goroutine: it blocks while no wakeup is pending,
// waits out the nearest deadline otherwise, and hands due wakeups to their
// mailboxes outside the clock mutex, in (at, seq) order.
func (r *Runtime) runClock() {
	defer r.wg.Done()
	c := &r.clock
	sleep := time.NewTimer(time.Hour)
	sleep.Stop()
	var due []wakeup
	for {
		next := int64(-1)
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		now := r.NowNs()
		for len(c.heap) > 0 && c.heap[0].at <= now {
			due = append(due, c.pop())
		}
		if len(c.heap) > 0 {
			next = c.heap[0].at
		}
		c.mu.Unlock()
		switch {
		case len(due) > 0:
			for i := range due {
				r.enqueue(due[i].p, due[i].it)
				due[i] = wakeup{}
			}
			due = due[:0]
		case next < 0:
			<-c.wake
		default:
			waitFor(sleep, c.wake, time.Duration(next-r.NowNs()), nil)
		}
	}
}
