package engine

import (
	"time"

	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/rt"
	"distcount/internal/sim"
)

// substrate is what the two loops drive: something that starts operations,
// delivers their completions, and reports its clock and message loads. All
// times are in the substrate's own unit (simulated ticks, or wall-clock
// nanoseconds when Result.Wall); the loops scale scenario arrivals into it.
//
//	adapter       now           due (open loop)        await                   loads
//	simCounter    net.Now       no event precedes it   one net.Step            O(1) tracker
//	wallRuntime   r.NowNs       now has reached it     sink batch or deadline  atomic snapshot
//	keyedService  merged clock  as its backend         merged step/sink        summed over shards
type substrate interface {
	// fresh reports whether nothing has run yet: the report's time axis,
	// load baselines and series are all relative to an unused substrate, and
	// a reused one would silently fold its previous traffic into every
	// metric (or, on rt, is already closed).
	fresh() bool
	// bind registers the loop's completion handler, and reopened, called when
	// a key frozen for migration is reopened by its cutover (keyed substrates
	// only). Handlers run on the driving goroutine, inside await — on the
	// simulator synchronously at the completion's point in the event order.
	// close undoes bind and releases the substrate.
	bind(done func(completion), reopened func())
	close()

	now() int64
	// due reports whether an arrival at time at may be handed to start, next
	// to the clock reading it decided on (what now would return). With ahead
	// set (the closed loop, which injects at max(arrival, now)) a substrate
	// that can schedule into the future — the simulator — accepts every
	// arrival; otherwise an arrival is due once nothing can happen before it.
	due(at int64, ahead bool) (now int64, due bool)
	// open reports whether key is admissible (false while frozen for
	// migration drain; always true on a single counter).
	open(key int) bool
	// start injects one increment for key by p at time at >= now.
	start(at int64, key int, p sim.ProcID)
	// await makes progress: it delivers the next completion (on real time:
	// every completion already there), or returns once the clock reaches until
	// (the next arrival; negative = none pending). It returns false when
	// nothing happened and nothing will: the simulator ran out of events, or
	// real time stayed silent for the stall timeout.
	await(until int64) (bool, error)
	// settle runs the substrate to quiescence after the last completion:
	// trailing maintenance events (stale timers) still count toward the
	// simulator's message totals.
	settle() error
	// take consumes a completed operation's delivered value and drops the
	// substrate's bookkeeping for it. Every counter.Ops table records a value
	// per completion until someone reads it, so the loops take each one —
	// verifying or not — or an unbounded run accumulates one entry per op.
	take(c completion) (value int, ok bool)

	// loads returns fresh copies of the cumulative per-processor sent and
	// received counts, peak their bottleneck (processor, its load, the sum of
	// all loads), and messages the total message count.
	loads() (sent, recv []int64)
	peak() (proc int, load, sum int64)
	messages() int64
	// faults returns the injected-fault events fired so far and whether a
	// fault plan is installed at all.
	faults() (stats sim.FaultStats, active bool)
}

// completion is one finished operation as a substrate reports it.
type completion struct {
	shard       int // 0 on a single counter
	id          sim.OpID
	key, epoch  int // epoch: the key's routing epoch the op ran at
	proc        sim.ProcID
	start, done int64 // the substrate's own stamps of the op's interval
}

// simCounter adapts a simulator-backed counter.
type simCounter struct {
	c      counter.Async
	net    *sim.Network
	valued counter.Valued // nil when the counter records no values
}

func (s *simCounter) fresh() bool { return s.net.Now() == 0 && s.net.Ops() == 0 }

func (s *simCounter) bind(done func(completion), _ func()) {
	s.net.OnOpDone(func(st *sim.OpStats) {
		done(completion{id: st.ID, proc: st.Initiator, start: st.StartedAt, done: st.DoneAt})
	})
}

func (s *simCounter) close()        { s.net.OnOpDone(nil) }
func (s *simCounter) now() int64    { return s.net.Now() }
func (s *simCounter) open(int) bool { return true }

func (s *simCounter) due(at int64, ahead bool) (int64, bool) {
	now := s.net.Now()
	if ahead {
		return now, true
	}
	next, ok := s.net.NextAt()
	return now, !ok || next >= at
}

func (s *simCounter) start(at int64, _ int, p sim.ProcID) { s.c.Start(at, p) }
func (s *simCounter) await(int64) (bool, error)           { return s.net.Step() }
func (s *simCounter) settle() error                       { return s.net.Run() }

func (s *simCounter) take(c completion) (value int, ok bool) {
	if s.valued != nil {
		value, ok = s.valued.OpValue(c.id)
	}
	s.net.ForgetOp(c.id)
	return value, ok
}

func (s *simCounter) loads() (sent, recv []int64) { return s.net.Sent(), s.net.Recv() }

func (s *simCounter) peak() (int, int64, int64) {
	p, l := s.net.MaxLoad()
	return int(p), l, s.net.SumLoads()
}

func (s *simCounter) messages() int64 { return s.net.MessagesTotal() }

func (s *simCounter) faults() (sim.FaultStats, bool) {
	return s.net.FaultStats(), s.net.FaultsActive()
}

// wallStall bounds how long a wall-clock substrate stays without a
// completion before reporting silence. The simulator detects a stalled
// protocol by running out of events; real goroutines just stay silent, so
// real time needs a timeout — generous enough that scheduler hiccups under a
// loaded CI machine never trip it. The wait itself is rt.Sink's: its watchdog
// holds the timeout, so no await arms a timer for it.
const wallStall = 30 * time.Second

// wallRuntime adapts the real-hardware runtime.
type wallRuntime struct {
	r *rt.Runtime
	// stall is the silence that ends a run (wallStall); wedgeIdle replaces it
	// once a fault has fired: a silent system is then the expected shape of a
	// wedged run (Config.WedgeIdle).
	stall, wedgeIdle time.Duration
	wedging          bool
	sink             *rt.Sink
	handle           func(rt.Completion)
}

func (w *wallRuntime) fresh() bool { return w.r.Ops() == 0 }

func (w *wallRuntime) bind(done func(completion), _ func()) {
	w.sink = rt.NewSink(w.r.NowNs, w.stall)
	w.r.OnOpDone(func(d rt.OpDone) { w.sink.Put(0, d) })
	w.handle = func(d rt.Completion) {
		done(completion{id: d.ID, proc: d.Initiator, start: d.StartNs, done: d.DoneNs})
	}
}

func (w *wallRuntime) close() {
	w.sink.Close()
	w.r.Close()
}

func (w *wallRuntime) now() int64                          { return w.r.NowNs() }
func (w *wallRuntime) open(int) bool                       { return true }
func (w *wallRuntime) start(at int64, _ int, p sim.ProcID) { w.r.Start(at, p) }

func (w *wallRuntime) due(at int64, _ bool) (int64, bool) {
	now := w.r.NowNs()
	return now, at <= now
}

func (w *wallRuntime) await(until int64) (bool, error) {
	if !w.wedging && w.r.FaultFired() {
		w.wedging = true
		w.sink.SetStall(w.wedgeIdle)
	}
	return w.sink.Await(until, w.handle), nil
}

func (w *wallRuntime) settle() error                  { return nil }
func (w *wallRuntime) take(c completion) (int, bool)  { return w.r.OpValue(c.id) }
func (w *wallRuntime) loads() (sent, recv []int64)    { return w.r.Loads() }
func (w *wallRuntime) peak() (int, int64, int64)      { return scanPeak(w.r.Loads()) }
func (w *wallRuntime) messages() int64                { return w.r.MessagesTotal() }
func (w *wallRuntime) faults() (sim.FaultStats, bool) { return w.r.FaultStats(), w.r.FaultsActive() }

// keyedService adapts the sharded multi-key service on either backend: the
// merged deterministic event loop over sim shards, or (wall) the one sink
// every rt shard completes into. The service layer rejects fault plans, so
// it never reports faults and a silent service is always a stall.
type keyedService struct {
	svc  *countersvc.Service
	wall bool
	// Wall only.
	sink   *rt.Sink
	handle func(rt.Completion)
}

func (k *keyedService) fresh() bool {
	for s := 0; s < k.svc.Shards(); s++ {
		if r := k.svc.RT(s); r != nil && r.Ops() != 0 {
			return false
		}
		if net := k.svc.Net(s); net != nil && net.Ops() != 0 {
			return false
		}
	}
	return k.svc.Now() == 0
}

func (k *keyedService) bind(done func(completion), reopened func()) {
	// Cutovers happen inside the service's completion bookkeeping, on the
	// driving goroutine on both backends, so reopened needs no
	// synchronization.
	k.svc.OnMigrate(func(countersvc.MigrationEvent) { reopened() })
	if k.wall {
		k.sink = rt.NewSink(k.svc.NowNs, wallStall)
		k.svc.DeliverTo(k.sink)
		k.handle = func(d rt.Completion) {
			key, epoch := k.svc.CompleteRT(d)
			done(completion{shard: d.Shard, id: d.ID, key: key, epoch: epoch,
				proc: d.Initiator, start: d.StartNs, done: d.DoneNs})
		}
		return
	}
	k.svc.OnOpDone(func(shard, key, epoch int, st *sim.OpStats) {
		done(completion{shard: shard, id: st.ID, key: key, epoch: epoch,
			proc: st.Initiator, start: st.StartedAt, done: st.DoneAt})
	})
}

func (k *keyedService) close() {
	if k.wall {
		k.sink.Close()
	}
	k.svc.OnMigrate(nil)
	k.svc.OnOpDone(nil)
	k.svc.Close()
}

func (k *keyedService) now() int64 {
	if k.wall {
		return k.svc.NowNs()
	}
	return k.svc.Now()
}

func (k *keyedService) due(at int64, ahead bool) (int64, bool) {
	now := k.now()
	if k.wall {
		return now, at <= now
	}
	if ahead {
		return now, true
	}
	next, ok := k.svc.NextAt()
	return now, !ok || next >= at
}

func (k *keyedService) open(key int) bool {
	_, open := k.svc.RouteFor(key)
	return open
}

func (k *keyedService) start(at int64, key int, p sim.ProcID) { k.svc.Start(at, key, p) }

func (k *keyedService) await(until int64) (bool, error) {
	if k.wall {
		return k.sink.Await(until, k.handle), nil
	}
	return k.svc.Step()
}

func (k *keyedService) settle() error {
	if k.wall {
		return nil
	}
	return k.svc.Run()
}

func (k *keyedService) take(c completion) (int, bool) {
	value, ok := k.svc.Counter(c.shard).OpValue(c.id)
	if net := k.svc.Net(c.shard); net != nil {
		net.ForgetOp(c.id)
	}
	return value, ok
}

func (k *keyedService) loads() (sent, recv []int64)    { return k.svc.Loads() }
func (k *keyedService) peak() (int, int64, int64)      { return scanPeak(k.svc.Loads()) }
func (k *keyedService) messages() int64                { return k.svc.MessagesTotal() }
func (k *keyedService) faults() (sim.FaultStats, bool) { return sim.FaultStats{}, false }
