package engine

import (
	"fmt"

	"distcount/internal/countersvc"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// flight is an initiator's admission state. The one protocol invariant the
// loops preserve is at most one operation per initiator in flight (across
// all shards of a keyed service), so in-flight operations are indexed by
// initiator and need no per-op table.
type flight struct {
	busy           bool
	arrival, start int64 // the in-flight op's scenario arrival and injection time (= arrival unless it waited)
	rec            int   // its index in run.recs; -1 in the closed loop, which keeps no per-request records
}

// run is the state of one engine run, shared by the two loops.
type run struct {
	s     service
	cfg   Config
	res   *Result
	src   *source
	scale int64 // service time units per scenario tick
	vf    *verifier
	m     *metrics

	flights     []flight // per initiator
	inFlight    int
	sampleEvery int
	seriesCap   int // the series' expected length, from the ops hint (0: unknown)

	// Open loop only: every request in arrival order, and the record indices
	// waiting per initiator (busy initiator or frozen key).
	recs        []opRec
	queued      [][]int
	totalQueued int
}

// drive runs the scenario against the service in cfg.Mode and assembles the
// report into res, whose identity fields (Algorithm, N, and on a keyed run
// Keys, Shards, ShardAlgos) the entry point has filled in; a run with no Keys
// is a single counter's and reports as one.
func drive(svc *countersvc.Service, res *Result, gen workload.Generator, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := &run{s: service{Service: svc, stall: wallStall, wedgeIdle: cfg.WedgeIdle}, cfg: cfg, res: res, scale: 1}
	s := &r.s
	if !s.fresh() {
		return nil, fmt.Errorf("engine: %s has already run; build a fresh counter, runtime or service per run", res.Algorithm)
	}
	if rtr, ok := svc.Counter(0).(*rt.Runtime); ok {
		s.wall, res.Wall, res.TickNs = true, true, rtr.Tick().Nanoseconds()
		r.scale = res.TickNs
	}
	res.Scenario, res.Mode, res.Warmup = gen.Name(), cfg.Mode.String(), cfg.Warmup
	r.src = newSource(gen, res.N, res.Keys)
	if r.src.err != nil {
		return nil, r.src.err
	}
	hint := opsHint(cfg, gen)
	r.m = newMetrics(res, cfg.Warmup)
	if cfg.Verify {
		r.vf = newVerifier(svc, res.Keys > 0)
	}
	r.flights = make([]flight, res.N+1)
	var thinAfter bool
	r.sampleEvery, thinAfter = resolveStride(cfg, gen)
	if !thinAfter {
		r.seriesCap = hint/r.sampleEvery + 1
	}

	loop := r.closedLoop
	if cfg.Mode == Open {
		loop = r.openLoop
		res.QueueCap = cfg.QueueCap
		r.recs = make([]opRec, 0, hint)
		r.queued = make([][]int, res.N+1)
	} else {
		res.InFlight = cfg.InFlight
	}
	s.bind(r.complete, r.reopened)
	defer s.close()
	err := loop()
	if err == nil {
		err = s.settle()
	}
	if err != nil {
		return nil, fmt.Errorf("engine: %s/%s: %w", res.Algorithm, res.Scenario, err)
	}
	if r.src.err != nil {
		return nil, r.src.err
	}
	if err := r.epilogue(); err != nil {
		return nil, err
	}
	if cfg.Mode == Open {
		res.Buckets = bucketize(r.recs, cfg.KneeBuckets)
		res.Knee = detectKnee(res.Buckets)
	}
	if err := r.m.finalize(res, s, thinAfter); err != nil {
		return nil, err
	}
	if r.vf != nil {
		r.vf.attach(res)
	}
	return res, nil
}

// closedLoop keeps at most cfg.InFlight operations in flight, admitting the
// next request from each completion.
func (r *run) closedLoop() error {
	for {
		until := r.admit()
		if r.src.err != nil || (!r.src.have && r.inFlight == 0) {
			return nil
		}
		if ok, err := r.s.await(until); err != nil || !ok {
			return err
		}
	}
}

// admit starts requests, in arrival order, while a window slot is free, the
// head-of-line initiator is idle and its key is open. Requests whose
// arrival time is in the past (the closed loop fell behind) start
// immediately; the wait is accounted as queueing delay. A head whose key is
// frozen for migration drain holds the line: the freeze implies in-flight
// operations of that key, whose completions both drive the drain to its
// cutover and re-trigger admission, so the hold always resolves.
//
// It returns the head's arrival time when that is all admission is waiting
// for, and -1 when only a completion can unblock it.
func (r *run) admit() (until int64) {
	for r.inFlight < r.cfg.InFlight && r.src.have &&
		!r.flights[r.src.head.Proc].busy && r.s.open(r.src.head.Key) {
		at := r.src.arrival * r.scale
		now, due := r.s.due(at, true)
		if !due {
			return at
		}
		r.launch(at, now, -1, r.src.head.Key, r.src.head.Proc)
		r.src.pull()
	}
	return -1
}

// openLoop merges two timestamp-ordered streams: scenario arrivals and the
// service's completions. Arrivals win ties, so each request's fate
// (inject, queue or drop) is decided with the pre-completion state of its
// arrival instant — deterministically on the simulator, and as a real
// open-loop frontend would see it.
func (r *run) openLoop() error {
	for {
		for r.src.have {
			now, due := r.s.due(r.src.arrival*r.scale, false)
			if !due {
				break
			}
			r.arrive(now)
			r.src.pull()
		}
		if r.src.err != nil || (!r.src.have && r.inFlight == 0 && r.totalQueued == 0) {
			return nil
		}
		until := int64(-1)
		if r.src.have {
			until = r.src.arrival * r.scale
		}
		if ok, err := r.s.await(until); err != nil || (!ok && !r.src.have) {
			return err
		}
	}
}

// arrive decides the head request's fate at its arrival instant (now is the
// clock reading that found it due). A frozen
// key queues exactly like a busy initiator (the hold is the migration
// protocol's admission cost, charged as queueing delay). The recorded
// arrival is the scheduled one, not the instant the loop got around to it:
// offered rate is a property of the scenario, and charging lateness to the
// operation's latency rather than silently re-timing the arrival is what
// keeps an overloaded wall run honest — the coordinated-omission rule.
func (r *run) arrive(now int64) {
	p, key := r.src.head.Proc, r.src.head.Key
	idx := len(r.recs)
	r.recs = append(r.recs, opRec{
		arrival:    r.src.arrival * r.scale,
		done:       -1,
		key:        int32(key),
		queueDepth: int32(r.totalQueued),
		backlog:    int32(r.inFlight + r.totalQueued),
	})
	switch {
	case !r.flights[p].busy && r.s.open(key):
		r.launch(r.recs[idx].arrival, now, idx, key, p)
	case r.totalQueued >= r.cfg.QueueCap:
		r.recs[idx].dropped = true
		r.res.Dropped++
	default:
		r.queued[p] = append(r.queued[p], idx)
		r.totalQueued++
		if r.totalQueued > r.res.PeakQueueDepth {
			r.res.PeakQueueDepth = r.totalQueued
		}
	}
}

// feed hands an idle initiator its oldest queued request, which starts now
// (the wait is its queueing delay) — unless that request's key is frozen:
// per-initiator FIFO holds the line until the cutover reopens it.
func (r *run) feed(p sim.ProcID) {
	q := r.queued[p]
	if r.flights[p].busy || len(q) == 0 {
		return
	}
	head := &r.recs[q[0]]
	if !r.s.open(int(head.key)) {
		return
	}
	r.queued[p] = q[1:]
	r.totalQueued--
	r.launch(head.arrival, r.s.Now(), q[0], int(head.key), p)
}

// reopened runs when a cutover reopens a migrated key: initiators holding
// its requests at their queue heads can move again. The closed loop needs
// nothing — the completion that triggered the cutover re-admits.
func (r *run) reopened(countersvc.MigrationEvent) {
	for p := 1; p < len(r.queued); p++ {
		r.feed(sim.ProcID(p))
	}
}

// launch injects the request that arrived at arrival (recs[rec], when the
// loop keeps records) for key by p, at its arrival time or now, whichever
// is later. now is the caller's clock reading — the one that found the
// arrival due, where there was one — so an admission reads the clock once.
func (r *run) launch(arrival, now int64, rec, key int, p sim.ProcID) {
	at := max(arrival, now)
	r.flights[p] = flight{busy: true, arrival: arrival, start: at, rec: rec}
	r.inFlight++
	r.s.Start(at, key, p)
}

// complete is the completion handler of both loops. On the simulator it
// runs inside the completing event, so whatever it injects next is
// scheduled before any later completion of the same event is handled —
// the (time, sequence) event order, and with it every report, depends on
// that.
func (r *run) complete(c completion) {
	f := r.flights[c.proc]
	r.flights[c.proc].busy = false
	r.inFlight--
	value, ok := r.s.take(c)
	if r.vf != nil {
		r.vf.observe(c, value, ok)
	}
	if f.rec >= 0 {
		r.recs[f.rec].done = c.done
	}
	r.m.onDone(r.res, &r.s, c.key, f.arrival, f.start, c.done)
	if r.m.inFlight.due() {
		frontier := r.frontier()
		r.m.inFlight.advance(frontier)
		if r.vf != nil {
			r.vf.stream.Advance(frontier)
		}
	}
	if r.m.completed%r.sampleEvery == 0 {
		if r.res.Series == nil {
			r.res.Series = make([]Sample, 0, r.seriesCap)
		}
		r.res.Series = append(r.res.Series, r.m.sample(r.res, &r.s, r.inFlight, r.totalQueued))
	}
	if r.cfg.Mode == Open {
		r.feed(c.proc)
	} else {
		r.admit()
	}
}

// frontier returns a time no operation still to be reported starts before:
// the ones in flight have started, and whatever starts later starts at the
// clock or after it. A completion may be reported late and out of done
// order (rt), but it completes an operation that was in flight until now.
func (r *run) frontier() int64 {
	f := r.s.Now()
	for i := range r.flights {
		if fl := &r.flights[i]; fl.busy && fl.start < f {
			f = fl.start
		}
	}
	return f
}

// epilogue accounts for whatever the loop left behind. Without faults a run
// that cannot drain is a driver error. With them it is the expected shape
// of a faulty run: the in-flight operations can never complete (a fault
// destroyed one of their events) and the requests behind them — queued, or
// never pulled from the scenario — were never served.
func (r *run) epilogue() error {
	stats, active := r.s.FaultStats()
	if active {
		r.res.Faults = &stats
	}
	if !r.src.have && r.inFlight == 0 && r.totalQueued == 0 {
		return nil
	}
	if !stats.Any() {
		return fmt.Errorf("engine: %s/%s: driver stalled with %d ops in flight, %d queued",
			r.res.Algorithm, r.res.Scenario, r.inFlight, r.totalQueued)
	}
	r.res.Wedged = r.inFlight
	r.res.Unserved = r.totalQueued
	for r.src.have {
		r.res.Unserved++
		r.src.pull()
	}
	return r.src.err
}
