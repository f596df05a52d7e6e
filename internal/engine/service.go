package engine

import (
	"time"

	"distcount/internal/countersvc"
	"distcount/internal/rt"
	"distcount/internal/sim"
)

// service is what the two loops drive: a countersvc.Service, of which a
// single counter is the one-key, one-shard case (countersvc.Single). Its
// clock, starts, loads, message and fault totals are the service's own — the
// backend was chosen when the service was built — so the adapter adds only
// what differs between a clock the loop steps and one it waits on. All times
// are in the backend's unit (simulated ticks, or wall-clock nanoseconds when
// wall); the loops scale scenario arrivals into it.
//
//	backend  arrival due (open loop)  await                                  settle
//	sim      no event precedes it     one event step, merged over shards    run to quiescence
//	rt       the clock has reached it sink batch, arrival deadline or stall nothing left to run
type service struct {
	*countersvc.Service
	wall bool
	// Wall only. stall is the silence that ends a run (wallStall); once a
	// fault has fired, wedgeIdle of it does — a silent system is then the
	// expected shape of a wedged run. With a fault plan installed the sink
	// reports every min(wedgeIdle, stall) of silence (period) and await
	// consults the fault record at each report, so a fault that fires while
	// the loop already waits still ends the wait within wedgeIdle.
	stall, wedgeIdle, period time.Duration
	sink                     *rt.Sink
	handle                   func(rt.Completion)
	// sent and recv hold the loads of the latest series sample; the next
	// sample reuses them, so sampling allocates nothing.
	sent, recv []int64
}

// completion is one finished operation as the service reports it.
type completion struct {
	shard       int // 0 on a single counter
	id          sim.OpID
	key, epoch  int // epoch: the key's routing epoch the op ran at
	proc        sim.ProcID
	start, done int64 // the backend's own stamps of the op's interval
}

// wallStall bounds how long a wall-clock run stays without a completion
// before reporting silence. The simulator detects a stalled protocol by
// running out of events; real goroutines just stay silent, so real time
// needs a timeout — generous enough that scheduler hiccups under a loaded CI
// machine never trip it. The wait itself is rt.Sink's: its watchdog holds
// the timeout, so no await arms a timer for it.
const wallStall = 30 * time.Second

// fresh reports whether the service has never started an operation: the
// report's time axis, load baselines and series are all relative to an
// unused service, and a reused one would silently fold its previous traffic
// into every metric (or, on rt, is already closed). countersvc.Single has
// already refused a counter that ran before it was wrapped.
func (s *service) fresh() bool {
	for k := range s.Keys() {
		if s.KeyOps(k) != 0 || s.InFlight(k) != 0 {
			return false
		}
	}
	return true
}

// bind registers the loop's completion handler, and reopened, called when a
// key frozen for migration is reopened by its cutover. Handlers run on the
// driving goroutine, inside await — on the simulator synchronously at the
// completion's point in the event order. close undoes bind and releases the
// service.
func (s *service) bind(done func(completion), reopened func(countersvc.MigrationEvent)) {
	// Cutovers happen inside the service's completion bookkeeping, on the
	// driving goroutine on both backends, so reopened needs no
	// synchronization.
	s.OnMigrate(reopened)
	if s.wall {
		s.period = s.stall
		if _, active := s.FaultStats(); active {
			s.period = min(s.wedgeIdle, s.stall)
		}
		s.sink = rt.NewSink(s.Now, s.period)
		s.DeliverTo(s.sink)
		s.handle = func(d rt.Completion) {
			key, epoch := s.CompleteRT(d)
			done(completion{shard: d.Shard, id: d.ID, key: key, epoch: epoch,
				proc: d.Initiator, start: d.StartNs, done: d.DoneNs})
		}
		return
	}
	s.OnOpDone(func(shard, key, epoch int, st *sim.OpStats) {
		done(completion{shard: shard, id: st.ID, key: key, epoch: epoch,
			proc: st.Initiator, start: st.StartedAt, done: st.DoneAt})
	})
}

func (s *service) close() {
	if s.wall {
		s.sink.Close()
	}
	s.OnMigrate(nil)
	s.OnOpDone(nil)
	s.Close()
}

// due reports whether an arrival at time at may be started, next to the
// clock reading it decided on (what Now would return). With ahead set (the
// closed loop, which injects at max(arrival, now)) the simulator, which
// schedules into the future, accepts every arrival; otherwise an arrival is
// due once nothing can happen before it.
func (s *service) due(at int64, ahead bool) (now int64, due bool) {
	now = s.Now()
	if s.wall {
		return now, at <= now
	}
	if ahead {
		return now, true
	}
	next, ok := s.NextAt()
	return now, !ok || next >= at
}

// open reports whether key is admissible (false while frozen for migration
// drain; always true on a single counter).
func (s *service) open(key int) bool {
	_, open := s.RouteFor(key)
	return open
}

// await makes progress: it delivers the next completion (on real time:
// every completion already there), or returns once the clock reaches until
// (the next arrival; negative = none pending). It returns false when
// nothing happened and nothing will: the simulator ran out of events, or
// real time stayed silent for the stall timeout.
func (s *service) await(until int64) (bool, error) {
	if !s.wall {
		return s.Step()
	}
	for quiet := s.period; !s.sink.Await(until, s.handle); quiet += s.period {
		if st, _ := s.FaultStats(); quiet >= s.stall || st.Any() {
			return false, nil
		}
	}
	return true, nil
}

// settle runs the service to quiescence after the last completion: trailing
// maintenance events (stale timers) still count toward the simulator's
// message totals.
func (s *service) settle() error {
	if s.wall {
		return nil
	}
	return s.Run()
}

// take consumes a completed operation's delivered value. Every counter.Ops
// table records a value per completion until someone reads it, so the loops
// take each one — verifying or not — or an unbounded run accumulates one
// entry per op.
func (s *service) take(c completion) (value int, ok bool) {
	return s.Counter(c.shard).OpValue(c.id)
}

// peak scans the summed loads for the bottleneck: the processor, its load,
// and the sum of all loads.
func (s *service) peak() (proc int, load, sum int64) {
	s.sent, s.recv = s.Loads(s.sent, s.recv)
	return scanPeak(s.sent, s.recv)
}
