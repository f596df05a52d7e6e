package engine

import (
	"fmt"

	"distcount/internal/countersvc"
	"distcount/internal/sim"
	"distcount/internal/verify"
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

// run is the driver's state for one engine run (see stages.go for the
// stages around it). Its times are on the service's clock: simulated ticks,
// or wall-clock nanoseconds on rt, into which the loops scale scenario
// arrivals.
type run struct {
	svc   *countersvc.Service
	cfg   Config
	res   *Result
	src   *source
	scale int64 // service clock units per scenario tick

	flights     []flight // per initiator
	inFlight    int
	completed   int
	sampleEvery int
	seriesCap   int // the series' expected length, from the ops hint (0: unknown)
	// baseSent and baseRecv are the loads at the warmup boundary; sent and
	// recv hold the latest series sample's, which the next sample reuses,
	// so sampling allocates nothing.
	baseSent, baseRecv, sent, recv []int64

	// Open loop only: every request in arrival order, and the record indices
	// waiting per initiator (busy initiator or frozen key).
	recs        []opRec
	queued      [][]int
	totalQueued int

	// The side stages: the producer behind src, and the bookkeeper that
	// applies the completion records to m. out is the batch being filled;
	// m is the bookkeeper's until halt has joined it.
	producer, keeper *stage
	books            *ring[outcome]
	out              []outcome
	m                *metrics
	halted           bool
}

// drive runs the scenario against the service in cfg.Mode and assembles the
// report into res, whose identity fields (Algorithm, N, and on a keyed run
// Keys, Shards, ShardAlgos) the entry point has filled in; a run with no Keys
// is a single counter's and reports as one.
func drive(svc *countersvc.Service, res *Result, gen workload.Generator, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := &run{svc: svc, cfg: cfg, res: res, scale: 1}
	if !fresh(svc) {
		return nil, fmt.Errorf("engine: %s has already run; build a fresh counter, runtime or service per run", res.Algorithm)
	}
	if tick := svc.TickNs(); tick > 0 {
		res.Wall, res.TickNs, r.scale = true, tick, tick
	}
	// The generator's Name and Len are read here, before the producer owns it.
	res.Scenario, res.Mode, res.Warmup = gen.Name(), cfg.Mode.String(), cfg.Warmup
	hint := opsHint(cfg, gen)
	var thinAfter bool
	r.sampleEvery, thinAfter = resolveStride(cfg, gen)
	if !thinAfter {
		r.seriesCap = hint/r.sampleEvery + 1
	}
	var vf *verifier
	if cfg.Verify {
		vf = newVerifier(svc, res.Keys > 0)
	}
	r.m = newMetrics(res, cfg.Warmup, vf)
	r.flights = make([]flight, res.N+1)

	loop := r.closedLoop
	if cfg.Mode == Open {
		loop = r.openLoop
		res.QueueCap = cfg.QueueCap
		r.recs = make([]opRec, 0, hint)
		r.queued = make([][]int, res.N+1)
	} else {
		res.InFlight = cfg.InFlight
	}
	svc.OnMigrate(r.reopened)
	svc.OnComplete(r.complete, cfg.WedgeIdle)
	defer svc.Close()
	r.start(gen)
	defer r.halt()
	if r.src.err != nil {
		return nil, r.src.err
	}
	err := loop()
	if err == nil {
		// Trailing maintenance events (stale timers) still count toward the
		// simulator's message totals.
		err = svc.Run()
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
	r.halt()
	if cfg.Mode == Open {
		res.Buckets = bucketize(r.recs, cfg.KneeBuckets)
		res.Knee = detectKnee(res.Buckets)
	}
	if err := r.m.finalize(res, svc, r.baseSent, r.baseRecv, thinAfter); err != nil {
		return nil, err
	}
	if vf != nil {
		vf.attach(res)
	}
	return res, nil
}

// start launches the producer and the bookkeeper and pulls the first
// request.
func (r *run) start(gen workload.Generator) {
	reqs := newRing[workload.Request]()
	r.producer = goStage(func() { produce(gen, reqs) })
	r.books = newRing[outcome]()
	r.out, _ = r.books.take()
	r.keeper = goStage(func() { keep(r.m, r.books) })
	r.src = newSource(reqs, gen.Name(), r.res.N, r.res.Keys)
}

// record queues a completion for the bookkeeper, handing the batch over when
// it is full.
func (r *run) record(d outcome) {
	r.out = append(r.out, d)
	if len(r.out) < cap(r.out) {
		return
	}
	r.books.send(r.out)
	r.out = nil
	var ok bool
	if r.out, ok = r.books.take(); !ok {
		// The bookkeeper quit mid-run, which only a panic makes it do
		// (verify.Stream's frontier contract, say): raise it here, inside
		// the completion, on the caller's goroutine.
		panic(r.keeper.wait())
	}
}

// halt ends the side stages: it releases the producer, hands the
// bookkeeper the last batch and closes its ring, and waits for both. It
// runs once — at the end of a run, so m is complete, or on the way out of
// a failed or panicking one — and re-raises a stage's panic.
func (r *run) halt() {
	if r.halted {
		return
	}
	r.halted = true
	r.src.reqs.stop()
	if len(r.out) > 0 {
		r.books.send(r.out)
	}
	r.out = nil
	r.books.close()
	kept, produced := r.keeper.wait(), r.producer.wait()
	if kept != nil {
		panic(kept)
	}
	if produced != nil {
		panic(produced)
	}
}

// fresh reports whether the service has never started an operation: the
// report's time axis, load baselines and series are all relative to an
// unused service, and a reused one would silently fold its previous traffic
// into every metric (or, on rt, is already closed). countersvc.Single has
// already refused a counter that ran before it was wrapped.
func fresh(svc *countersvc.Service) bool {
	for k := range svc.Keys() {
		if svc.KeyOps(k) != 0 || svc.InFlight(k) != 0 {
			return false
		}
	}
	return true
}

// closedLoop keeps at most cfg.InFlight operations in flight, admitting the
// next request from each completion.
func (r *run) closedLoop() error {
	for {
		until := r.admit()
		if r.src.err != nil || (!r.src.have && r.inFlight == 0) {
			return nil
		}
		if ok, err := r.svc.Await(until); err != nil || !ok {
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
		!r.flights[r.src.head.Proc].busy && r.open(r.src.head.Key) {
		at := r.src.arrival * r.scale
		now, due := r.svc.Due(at, true)
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
			now, due := r.svc.Due(r.src.arrival*r.scale, false)
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
		if ok, err := r.svc.Await(until); err != nil || (!ok && !r.src.have) {
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
	case !r.flights[p].busy && r.open(key):
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
	if !r.open(int(head.key)) {
		return
	}
	r.queued[p] = q[1:]
	r.totalQueued--
	r.launch(head.arrival, r.svc.Now(), q[0], int(head.key), p)
}

// open reports whether key is admissible (false while frozen for migration
// drain; always true on a single counter).
func (r *run) open(key int) bool {
	_, open := r.svc.RouteFor(key)
	return open
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
	r.svc.Start(at, key, p)
}

// complete is the completion handler of both loops. On the simulator it
// runs inside the completing event, so whatever it injects next is
// scheduled before any later completion of the same event is handled —
// the (time, sequence) event order, and with it every report, depends on
// that. It keeps what reads the service or feeds the schedule and records
// the rest for the bookkeeper.
func (r *run) complete(c countersvc.Completion) {
	f := r.flights[c.Initiator]
	r.flights[c.Initiator].busy = false
	r.inFlight--
	// Every counter.Ops table records a value per completion until someone
	// reads it, so the loops take each one — verifying or not — or an
	// unbounded run accumulates one entry per op.
	value, ok := r.svc.Counter(c.Shard).OpValue(c.ID)
	if f.rec >= 0 {
		r.recs[f.rec].done = c.End
	}
	r.completed++
	if r.completed == r.cfg.Warmup+1 && r.cfg.Warmup > 0 {
		// The op crossing the boundary is the first measured one.
		r.res.MeasureStart = r.svc.Now()
		r.baseSent, r.baseRecv = r.svc.Loads(nil, nil)
	}
	d := outcome{
		tv:      verify.TimedValue{Op: c.ID, Value: value, Start: c.Start, End: c.End},
		arrival: f.arrival,
		start:   f.start,
		at:      verify.Placement{Shard: int32(c.Shard), Key: int32(c.Key), Epoch: int32(c.Epoch)},
		ok:      ok,
	}
	if r.completed%frontierEvery == 0 {
		d.frontier = r.frontier()
	}
	r.record(d)
	if r.completed%r.sampleEvery == 0 {
		if r.res.Series == nil {
			r.res.Series = make([]Sample, 0, r.seriesCap)
		}
		r.res.Series = append(r.res.Series, r.sample())
	}
	if r.cfg.Mode == Open {
		r.feed(c.Initiator)
	} else {
		r.admit()
	}
}

// sample takes one bottleneck-series point.
func (r *run) sample() Sample {
	r.sent, r.recv = r.svc.Loads(r.sent, r.recv)
	proc, load, sum := scanPeak(r.sent, r.recv)
	return Sample{
		SimTime:        r.svc.Now(),
		Completed:      r.completed,
		Bottleneck:     proc,
		BottleneckLoad: load,
		MeanLoad:       float64(sum) / float64(r.res.N),
		InFlight:       r.inFlight,
		QueueDepth:     r.totalQueued,
	}
}

// frontier returns a time no operation still to be reported starts before:
// the ones in flight have started, and whatever starts later starts at the
// clock or after it. A completion may be reported late and out of done
// order (rt), but it completes an operation that was in flight until now.
func (r *run) frontier() int64 {
	f := r.svc.Now()
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
	stats, active := r.svc.FaultStats()
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
