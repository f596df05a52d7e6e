package rt

import (
	"sync"
	"sync/atomic"
	"time"

	"distcount/internal/sim"
)

// Sink is the completion stream between processor goroutines and the one
// loop that drives them: an unbounded mailbox (mutex, slice and a one-slot
// wake token — the shape processors already use) plus the stall watchdog.
// Any number of runtimes deliver into it with Put, each record under the
// index of its producer (the shard of a sharded service); one goroutine
// consumes it with Await, which swaps the whole pending batch out per call,
// so a completion costs one uncontended lock on each side and no timer is
// touched while completions flow.
//
// The runtimes passed to NewSink lend that goroutine a worker each: it runs
// their ready processors whenever Await has no completion to hand over, and
// a processor that becomes ready while no worker is parked posts the wake
// token, so a driver parked in Await counts as an idle executor.
//
// Real goroutines that stop making progress just stay silent, so "nothing
// will happen" needs a timeout. It lives off the hot path: a watchdog timer
// compares the clock with the loop's last sign of life and wakes the loop
// only after a full stall of silence.
type Sink struct {
	mu    sync.Mutex
	queue []put
	// wake carries one token per empty→non-empty edge of queue, and the
	// watchdog's stall report. One slot suffices: a pending token already
	// makes the loop look at the queue.
	wake chan struct{}

	// Owned by the awaiting goroutine.
	batch   []put
	arrival *time.Timer // reusable timer of the until >= 0 waits (waitFor)
	rts     []*Runtime  // the runtimes whose processors it runs (help)
	turn    int         // the runtime help tries first

	now   func() int64
	stall time.Duration
	// life is the latest instant, on now's clock, at which the loop was seen
	// alive: the newest handled completion's End or the newest arrival waited
	// out. Written by the awaiting goroutine, read by the watchdog.
	life atomic.Int64
	// stalled asks the loop to check for a stall; the loop re-checks the
	// silence itself, so a completion racing the watchdog is never lost.
	stalled atomic.Bool

	// dogMu guards the watchdog: its timer's re-arming and closed, which
	// keeps a callback that raced Close from re-arming.
	dogMu  sync.Mutex
	dog    *time.Timer
	closed bool
}

// put is one delivered record and the index it was delivered under.
type put struct {
	from int
	d    sim.OpDone
}

// NewSink returns a sink whose Await reports a stall once now's clock
// (nanoseconds, the clock of the records delivered into it) has moved
// stall past the loop's last sign of life. The watchdog starts counting
// immediately; Close stops it. Each of rts, the runtimes that deliver into
// the sink, lends its awaiting goroutine a worker until Close: while a
// runtime has more than one worker, one retires, and Await runs the
// runtime's ready processors instead.
func NewSink(now func() int64, stall time.Duration, rts ...*Runtime) *Sink {
	s := &Sink{wake: make(chan struct{}, 1), now: now, stall: stall, rts: rts}
	for _, r := range rts {
		r.lend(s)
	}
	s.arrival = time.NewTimer(time.Hour)
	s.arrival.Stop()
	s.life.Store(now())
	s.dogMu.Lock()
	s.dog = time.AfterFunc(stall, s.watch)
	s.dogMu.Unlock()
	return s
}

// Put delivers one completion under index from. It never blocks on the
// consumer, so it is safe inside a Runtime's OnOpDone callback.
func (s *Sink) Put(from int, d sim.OpDone) {
	s.mu.Lock()
	s.queue = append(s.queue, put{from, d})
	first := len(s.queue) == 1
	s.mu.Unlock()
	if first {
		s.post()
	}
}

func (s *Sink) post() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Await makes progress on the driving goroutine: it hands every pending
// completion to handle with the index it was put under, in arrival order,
// and returns true; with none pending it waits for one, or — when until >=
// 0, an arrival due at that instant of now's clock — returns true once the
// clock reaches until. While it waits it runs the ready processors of the
// sink's runtimes, one mailbox at a time, looking for completions between
// two; a panic in a protocol callback run there propagates to the caller.
// It returns false when nothing happened and nothing will: the sink stayed
// silent for the stall timeout with no arrival pending. A caller that waits
// on through the silence gets the next report one stall timeout later.
func (s *Sink) Await(until int64, handle func(from int, d sim.OpDone)) bool {
	for {
		s.mu.Lock()
		s.batch, s.queue = s.queue, s.batch[:0]
		s.mu.Unlock()
		if n := len(s.batch); n > 0 {
			s.life.Store(s.batch[n-1].d.End)
			for _, c := range s.batch {
				handle(c.from, c.d)
			}
			return true
		}
		if until >= 0 && s.now() >= until {
			s.life.Store(until)
			return true
		}
		if s.help() {
			continue
		}
		if until >= 0 {
			if _, woken := waitFor(s.arrival, s.wake, time.Duration(until-s.now()), s.help); !woken {
				s.life.Store(until)
				return true
			}
			continue
		}
		<-s.wake
		// The token is a completion's (possibly one an earlier call already
		// handled: look again) or the watchdog's.
		if s.stalled.Load() && s.silent() {
			return false
		}
	}
}

// help runs one ready processor of the sink's runtimes, taking them in turn,
// and reports whether there was one.
func (s *Sink) help() bool {
	for i := range s.rts {
		j := (s.turn + i) % len(s.rts)
		if s.rts[j].help() {
			s.turn = (j + 1) % len(s.rts)
			return true
		}
	}
	return false
}

// silent re-checks a stall report on the awaiting goroutine: nothing is
// queued and the silence has run the whole timeout.
func (s *Sink) silent() bool {
	s.stalled.Store(false)
	s.mu.Lock()
	queued := len(s.queue)
	s.mu.Unlock()
	if queued > 0 {
		return false
	}
	s.dogMu.Lock()
	defer s.dogMu.Unlock()
	return s.quietLeft() <= 0
}

// quietLeft is how much of the stall timeout the current silence has yet to
// run. The caller holds dogMu.
func (s *Sink) quietLeft() time.Duration {
	return s.stall - time.Duration(s.now()-s.life.Load())
}

// watch is the watchdog timer's callback.
func (s *Sink) watch() {
	s.dogMu.Lock()
	defer s.dogMu.Unlock()
	s.aim()
}

// aim re-arms the watchdog for the remainder of the timeout while the loop
// shows life; after a full timeout of silence it posts the wake token and
// starts over. The caller holds dogMu.
func (s *Sink) aim() {
	if s.closed {
		return
	}
	rest := s.quietLeft()
	if rest <= 0 {
		s.stalled.Store(true)
		s.post()
		rest = s.stall
	}
	s.dog.Reset(rest)
}

// Close stops the sink's timers and ends its runtimes' loans: one still
// open gets its worker back. Completions delivered afterwards are kept and
// never consumed.
func (s *Sink) Close() {
	s.dogMu.Lock()
	s.closed = true
	s.dog.Stop()
	s.dogMu.Unlock()
	s.arrival.Stop()
	for _, r := range s.rts {
		r.reclaim()
	}
}
