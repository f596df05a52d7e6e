// Package countersvc layers a multi-key counting service over the
// single-counter algorithms of the registry — the refactor that removes the
// one-counter assumption from the stack.
//
// The paper's Ω(k) bottleneck (WattenhoferW97) applies per counter; a
// production counting service serves many independent keys. The service
// model here: keys are routed to shards by a deterministic hash, each shard
// is one counter instance built through registry.NewWith (its own network
// or runtime, its own algorithm choice), and a shard hands out its own
// value sequence 0, 1, 2, ... to the operations of all keys routed to it —
// a sharded ticket dispenser. Per-key counts are recovered by partitioning
// completions by key, which is also how verification partitions histories
// (internal/verify.EvaluateKeyed).
//
// A single counter is the degenerate service: Single wraps one counter as
// one key on one shard, and the workload engine drives every run — one
// counter or many — through a Service, so the backend is known here and
// nowhere downstream. A driver sees one surface on both backends: Start,
// Due, Await and Run, with every finished operation reported as one
// Completion to the one OnComplete handler. Fault plans
// (registry.Config.Faults) reach every shard as given: crash windows and
// churn name machines, and processor p is the same machine in every shard
// (see Loads).
//
// Batching falls out of the shard abstraction rather than being a separate
// queue: concurrent increments for different keys that share a
// window-sensitive shard (combining, difftree) arrive at the same instance
// and merge inside its combining/diffraction window, so the messages/op of
// the shard is amortized across every key it serves. Cheap shards (central)
// get no amortization — they are the low-traffic tier; that asymmetry is
// exactly what makes adaptive placement interesting.
//
// Hotspot migration: when hotspot detection is configured, the service
// watches per-key completion shares over a sliding window and, when one key
// exceeds the configured share, migrates it from its hash-assigned home
// shard to a dedicated hot shard built with a request-merging algorithm.
// Migration is freeze → drain → cutover: the key's admission is frozen (the
// engine holds its requests), in-flight operations drain to zero, then the
// route flips and the key's epoch increments. Draining first means every
// operation of the key ran entirely on one shard, so each (key, epoch)
// segment verifies cleanly against one algorithm's claimed consistency
// level — no operation straddles the cutover.
package countersvc

import (
	"fmt"
	"math"
	"time"

	"distcount/internal/counter"
	"distcount/internal/registry"
	"distcount/internal/rt"
	"distcount/internal/sim"
)

// Migration configures hotspot detection and the dedicated hot shard.
type Migration struct {
	// To is the algorithm of the hot shard (required; typically
	// "combining" or "difftree" — a request-merging scheme).
	To string
	// HotShare is the fraction of windowed completions a single key must
	// exceed to trigger migration (default 0.5).
	HotShare float64
	// CheckEvery is the number of completions between hotspot scans, which
	// is also the scan window (default 256).
	CheckEvery int
	// MaxMoves caps how many keys may migrate (default 1: the hot shard is
	// a dedicated instance, piling every warm key onto it would re-create
	// the bottleneck it exists to relieve).
	MaxMoves int
}

func (m Migration) withDefaults() (Migration, error) {
	if m.To == "" {
		return m, fmt.Errorf("countersvc: migration needs a target algorithm (To)")
	}
	if m.HotShare <= 0 || m.HotShare > 1 {
		m.HotShare = 0.5
	}
	if m.CheckEvery < 1 {
		m.CheckEvery = 256
	}
	if m.MaxMoves < 1 {
		m.MaxMoves = 1
	}
	return m, nil
}

// Config parameterizes a service.
type Config struct {
	// Keys is the number of keys the service serves (required).
	Keys int
	// N is the number of processors of every shard's network (required).
	N int
	// Shards is the number of home shards keys hash onto (default 1). A
	// configured Migration adds one dedicated hot shard on top.
	Shards int
	// Algo is the algorithm of every home shard (default "central" — the
	// cheap tier a hot key migrates away from).
	Algo string
	// ShardAlgos optionally overrides the algorithm per home shard; when
	// set its length must equal Shards.
	ShardAlgos []string
	// Registry is the construction regime every shard is built with
	// (window, sim options, backend, service cost, fault plan).
	Registry registry.Config
	// Migration enables hotspot detection and the dedicated hot shard;
	// nil disables migration.
	Migration *Migration
}

// MigrationEvent records one completed cutover.
type MigrationEvent struct {
	Key      int
	From, To int // shard indices
	// AtCompleted is the service-wide completion count at cutover.
	AtCompleted int
}

// Service routes keyed increments to shards. A driver starts operations
// with Start and makes progress with Await, which steps the merged event
// loop on the simulator and waits on the completion sink on rt; either way
// each finished operation reaches the OnComplete handler on the driving
// goroutine. Not safe for concurrent use; the engine owns it from one
// goroutine.
type Service struct {
	n      int
	base   int // home shard count (hot shard, if any, is shard index base)
	shards []shard
	// Every shard runs on the one backend, so exactly one of these holds a
	// handle per shard and the other is empty.
	nets []*sim.Network
	rts  []*rt.Runtime
	// next caches each shard network's earliest queued event time
	// (math.MaxInt64: none) for the merged loop, refreshed after the shard
	// steps and after Start routes to it: nothing else queues events on a
	// shard, so the loop need not peek every queue per event. Built by the
	// first merge; nil until then and on one network, which needs no merge.
	next []int64
	// shardSent, shardRecv are the scratch a shard past the first
	// snapshots its loads into on their way into a Loads sum.
	shardSent, shardRecv []int64

	keys []keyState
	// keyOf[shard*(n+1)+p] is the key of the one operation processor p may
	// have in flight on that shard.
	keyOf []int

	mig       *Migration
	hot       int // hot shard index, -1 without migration
	winTotal  int
	moves     int
	completed int
	events    []MigrationEvent

	now       int64 // merged simulated clock (max stepped event time)
	done      func(Completion)
	onMigrate func(MigrationEvent)

	// rt only. The service clock counts from origin, the first shard
	// runtime's start (shards are built in index order), and lag[shard] is
	// how much later that shard's runtime started: its own stamps run lag
	// behind the service clock. sink is where the runtimes complete into
	// once OnComplete is set; it reports silence every period, and Await
	// gives up after stall of it, or at the first report once a fault fired.
	origin        time.Time
	lag           []int64
	sink          *rt.Sink
	stall, period time.Duration
}

// stallTimeout bounds how long an rt wait stays without a completion before
// reporting silence. The simulator detects a stalled protocol by running out
// of events; real goroutines just stay silent, so real time needs a timeout —
// generous enough that scheduler hiccups under a loaded machine never trip
// it. The sink's watchdog holds it, so no wait arms a timer for it.
const stallTimeout = 30 * time.Second

// Completion is one finished operation as the service reports it on either
// backend: the backend's record, stamped on the service's clock (Now), and
// where the operation ran.
type Completion struct {
	sim.OpDone
	Shard int // 0 on a single counter
	Key   int
	// Epoch is the key's routing epoch the operation ran at, captured before
	// any cutover its own completion triggered, so a verifier files the
	// operation under the shard that executed it.
	Epoch int
}

// shard is one counter instance of the service.
type shard struct {
	c    counter.Async
	algo string
}

// keyState is one key's routing and accounting.
type keyState struct {
	shard    int // the shard the key routes to
	epoch    int // routing epoch, bumped at cutover
	frozen   bool
	inflight int // in-flight ops
	ops      int // completed ops, lifetime
	win      int // completions in the current hotspot window
}

// New builds the service: every home shard (plus the hot shard when
// migration is configured) through registry.NewWith, and the initial
// key → shard routing table.
func New(cfg Config) (*Service, error) {
	if cfg.Keys < 1 {
		return nil, fmt.Errorf("countersvc: config needs Keys >= 1 (got %d)", cfg.Keys)
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("countersvc: config needs N >= 1 (got %d)", cfg.N)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Algo == "" {
		cfg.Algo = "central"
	}
	algos := make([]string, cfg.Shards)
	for i := range algos {
		algos[i] = cfg.Algo
	}
	if len(cfg.ShardAlgos) > 0 {
		if len(cfg.ShardAlgos) != cfg.Shards {
			return nil, fmt.Errorf("countersvc: ShardAlgos has %d entries for %d shards", len(cfg.ShardAlgos), cfg.Shards)
		}
		copy(algos, cfg.ShardAlgos)
	}
	var mig *Migration
	if cfg.Migration != nil {
		m, err := cfg.Migration.withDefaults()
		if err != nil {
			return nil, err
		}
		mig = &m
		algos = append(algos, m.To)
	}

	s := newService(cfg.Keys, cfg.N, cfg.Shards, len(algos), mig)
	for i, name := range algos {
		c, err := registry.NewWith(name, cfg.N, cfg.Registry)
		if err != nil {
			err = fmt.Errorf("countersvc: shard %d: %w", i, err)
		} else if err = s.attach(i, name, c); err != nil {
			if r, ok := c.(*rt.Runtime); ok {
				r.Close()
			}
		}
		if err != nil {
			// Not Close: the shards past i were never attached.
			for _, r := range s.rts {
				r.Close()
			}
			return nil, err
		}
	}
	return s, nil
}

// Single wraps one counter, built on either backend, as a service of one key
// on one shard — the form the engine drives a single counter in. The
// counter must be fresh: the service's clock, loads and completions all
// start from an unused one (and an rt runtime that has run is closed).
func Single(c counter.Async) (*Service, error) {
	s := newService(1, c.N(), 1, 1, nil)
	if err := s.attach(0, c.Name(), c); err != nil {
		return nil, err
	}
	return s, nil
}

// newService lays out the routing state of a service of the given number of
// shards, every key on its home shard; attach fills in the shards.
func newService(keys, n, base, shards int, mig *Migration) *Service {
	s := &Service{
		n:      n,
		base:   base,
		mig:    mig,
		hot:    -1,
		stall:  stallTimeout,
		shards: make([]shard, shards),
		keys:   make([]keyState, keys),
		keyOf:  make([]int, shards*(n+1)),
	}
	if mig != nil {
		s.hot = shards - 1
	}
	for k := range s.keys {
		s.keys[k].shard = s.HomeShard(k)
	}
	return s
}

// attach installs c, built as algorithm algo, as shard i — shards are
// attached in index order — and hooks its completions on the sim backend.
// On rt, OnComplete hooks them. Its type switch is where the service picks
// a driver: a simulated counter's network for Step, NextAt and Now, or a
// runtime for the completion sink.
func (s *Service) attach(i int, algo string, c counter.Async) error {
	if c.N() < s.n {
		return fmt.Errorf("countersvc: shard %d algorithm %q built %d < %d processors", i, c.Name(), c.N(), s.n)
	}
	if c.Ops() != 0 {
		return fmt.Errorf("countersvc: %s has already run; build a fresh counter, runtime or service per run", c.Name())
	}
	s.shards[i] = shard{c: c, algo: algo}
	switch b := c.(type) {
	case *rt.Runtime:
		if len(s.rts) == 0 {
			s.origin = b.Origin()
		}
		s.rts = append(s.rts, b)
		s.lag = append(s.lag, b.Origin().Sub(s.origin).Nanoseconds())
	case *counter.Sim:
		if s.nets == nil {
			s.nets = make([]*sim.Network, 0, len(s.shards))
		}
		s.nets = append(s.nets, b.Net())
		c.OnOpDone(func(d sim.OpDone) { s.finish(i, d) })
	default:
		return fmt.Errorf("countersvc: counter %q has no simulated network or runtime to drive", c.Name())
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer — a deterministic, well-mixed
// integer hash, platform-independent so shard routing is stable everywhere.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HomeShard returns the hash-assigned home shard of a key — the routing
// before any migration.
func (s *Service) HomeShard(key int) int {
	return int(splitmix64(uint64(key)) % uint64(s.base))
}

// Keys returns the number of keys the service serves.
func (s *Service) Keys() int { return len(s.keys) }

// N returns the per-shard processor count requests may target.
func (s *Service) N() int { return s.n }

// Shards returns the total shard count, dedicated hot shard included.
func (s *Service) Shards() int { return len(s.shards) }

// BaseShards returns the home shard count (hash range).
func (s *Service) BaseShards() int { return s.base }

// HotShard returns the dedicated hot shard index, or -1 when migration is
// not configured.
func (s *Service) HotShard() int { return s.hot }

// Algo returns the algorithm name of a shard.
func (s *Service) Algo(shard int) string { return s.shards[shard].algo }

// Counter returns a shard's counter instance.
func (s *Service) Counter(shard int) counter.Async { return s.shards[shard].c }

// RouteFor returns the shard a key currently routes to and whether the key
// is open for admission (false while frozen for migration drain).
func (s *Service) RouteFor(key int) (shard int, open bool) {
	return s.keys[key].shard, !s.keys[key].frozen
}

// Epoch returns a key's routing epoch: 0 until its first migration. An
// operation's (key, epoch) recorded at Start identifies the one shard the
// operation ran on — the drain protocol guarantees no op straddles a
// cutover.
func (s *Service) Epoch(key int) int { return s.keys[key].epoch }

// InFlight returns the number of in-flight operations of a key.
func (s *Service) InFlight(key int) int { return s.keys[key].inflight }

// KeyOps returns the completed-operation count of a key.
func (s *Service) KeyOps(key int) int { return s.keys[key].ops }

// Migrations returns the completed cutovers, in order.
func (s *Service) Migrations() []MigrationEvent { return s.events }

// OnComplete registers the completion handler, invoked on the driving
// goroutine after the service's own bookkeeping (routing, migration) for
// each finished operation: inside Step on the simulator, at the
// completion's point in the event order, so whatever the handler starts is
// scheduled before any later completion of the same event is handled; inside
// Await on rt. wedgeIdle is how long an rt wait stays silent once a fault
// has fired before it gives up (see Await); the simulator ignores it. Set it
// before the first Start. On rt each shard runtime lends the driving
// goroutine a worker from here to Close (rt.NewSink): Await runs ready
// processors while it has no completion to hand over.
func (s *Service) OnComplete(fn func(Completion), wedgeIdle time.Duration) {
	s.done = fn
	if len(s.rts) == 0 {
		return
	}
	s.period = s.stall
	if _, active := s.FaultStats(); active {
		s.period = min(wedgeIdle, s.stall)
	}
	s.sink = rt.NewSink(s.Now, s.period, s.rts...)
	for shard, r := range s.rts {
		lag := s.lag[shard]
		r.OnOpDone(func(d sim.OpDone) {
			d.Start += lag
			d.End += lag
			s.sink.Put(shard, d)
		})
	}
}

// OnMigrate registers a cutover observer (both backends). Cutovers happen
// inside the service's completion bookkeeping, on the driving goroutine.
func (s *Service) OnMigrate(fn func(MigrationEvent)) { s.onMigrate = fn }

// Start injects one increment for key by processor p at absolute simulated
// time at (on the rt backend: right now, at being the caller's reading of
// Now, which becomes the operation's start stamp) and returns the shard it
// routed to plus the shard-local operation id. Callers must respect
// RouteFor: a frozen key must not be started, p must be one of the N()
// processors requests may target, and at most one operation per (shard,
// initiator) may be in flight.
func (s *Service) Start(at int64, key int, p sim.ProcID) (shard int, id sim.OpID) {
	k := &s.keys[key]
	if k.frozen {
		panic(fmt.Sprintf("countersvc: Start on frozen key %d", key))
	}
	if p < 1 || int(p) > s.n {
		panic(fmt.Sprintf("countersvc: Start by processor %d outside [1,%d]", p, s.n))
	}
	shard = k.shard
	if s.lag != nil {
		at -= s.lag[shard] // onto the shard runtime's clock; OnComplete's hook adds it back
	}
	id = s.shards[shard].c.Start(at, p)
	if s.next != nil {
		s.refresh(shard)
	}
	s.keyOf[shard*(s.n+1)+int(p)] = key
	k.inflight++
	return shard, id
}

// finish is the per-completion step shared by both backends: in-flight
// accounting, hotspot detection and the drain-triggered cutover, then the
// OnComplete handler.
func (s *Service) finish(shard int, d sim.OpDone) {
	key := s.keyOf[shard*(s.n+1)+int(d.Initiator)]
	k := &s.keys[key]
	c := Completion{OpDone: d, Shard: shard, Key: key, Epoch: k.epoch}
	k.inflight--
	k.ops++
	s.completed++
	if s.mig != nil {
		s.observe(key)
	}
	if k.frozen && k.inflight == 0 {
		s.cutover(key)
	}
	if s.done != nil {
		s.done(c)
	}
}

// observe feeds hotspot detection: per-key completion counts over a window
// of CheckEvery completions; at each window boundary the hottest key
// migrates if its share clears HotShare.
func (s *Service) observe(key int) {
	s.keys[key].win++
	s.winTotal++
	if s.winTotal < s.mig.CheckEvery {
		return
	}
	hotKey, hotCount := 0, 0
	for k := range s.keys {
		if c := s.keys[k].win; c > hotCount {
			hotKey, hotCount = k, c
		}
		s.keys[k].win = 0
	}
	total := s.winTotal
	s.winTotal = 0
	if s.moves >= s.mig.MaxMoves {
		return
	}
	if float64(hotCount) < s.mig.HotShare*float64(total) {
		return
	}
	hk := &s.keys[hotKey]
	if hk.shard == s.hot || hk.frozen {
		return
	}
	hk.frozen = true
	if hk.inflight == 0 {
		s.cutover(hotKey)
	}
}

// cutover flips a drained, frozen key to the hot shard and bumps its epoch.
func (s *Service) cutover(key int) {
	k := &s.keys[key]
	if k.inflight != 0 {
		panic(fmt.Sprintf("countersvc: cutover of key %d with %d ops in flight", key, k.inflight))
	}
	ev := MigrationEvent{Key: key, From: k.shard, To: s.hot, AtCompleted: s.completed}
	k.shard = s.hot
	k.epoch++
	k.frozen = false
	s.moves++
	s.events = append(s.events, ev)
	if s.onMigrate != nil {
		s.onMigrate(ev)
	}
}

// NextAt returns the earliest queued event time across all shard networks
// (sim backend); ok is false at global quiescence.
func (s *Service) NextAt() (int64, bool) {
	if len(s.nets) == 1 {
		return s.nets[0].NextAt()
	}
	shard, at := s.earliest()
	return at, shard >= 0
}

// Step delivers the globally earliest queued event; ok is false at global
// quiescence. One network needs no merge and steps directly.
func (s *Service) Step() (bool, error) {
	if len(s.nets) == 1 {
		return s.nets[0].Step()
	}
	shard, at := s.earliest()
	if shard < 0 {
		return false, nil
	}
	// Advance the merged clock before delivering: completion callbacks run
	// inside Step and must see Now() == the event time they run at (an
	// engine driver clamps its next injections to Now()).
	if at > s.now {
		s.now = at
	}
	_, err := s.nets[shard].Step()
	s.refresh(shard)
	if err != nil {
		return false, err
	}
	return true, nil
}

// earliest returns the shard holding the globally earliest queued event and
// that event's time, ties broken by lowest shard index to keep the merged
// schedule deterministic; shard is -1 at global quiescence.
func (s *Service) earliest() (shard int, at int64) {
	if s.next == nil {
		s.next = make([]int64, len(s.nets))
		for i := range s.nets {
			s.refresh(i)
		}
	}
	shard, at = -1, math.MaxInt64
	for i, t := range s.next {
		if t < at {
			shard, at = i, t
		}
	}
	return shard, at
}

// refresh re-reads one shard network's earliest queued event time into the
// merge cache.
func (s *Service) refresh(shard int) {
	t, ok := s.nets[shard].NextAt()
	if !ok {
		t = math.MaxInt64
	}
	s.next[shard] = t
}

// Due reports whether an operation arriving at at may be started, next to
// the clock reading it decided on (what Now returns). On rt the clock must
// have reached it. The simulator schedules into the future: an arrival is
// due once no event can happen before it, and always when early is set —
// the caller starts it at max(at, now) (the engine's closed loop).
func (s *Service) Due(at int64, early bool) (now int64, due bool) {
	now = s.Now()
	if s.rts != nil {
		return now, at <= now
	}
	if early {
		return now, true
	}
	next, ok := s.NextAt()
	return now, !ok || next >= at
}

// Await makes progress on the driving goroutine: it delivers the next
// completion to the OnComplete handler, or returns once the clock reaches
// until (the next arrival; negative: none pending). On the simulator that is
// one Step — until is the caller's to honour through Due. On rt it hands
// over every completion the sink holds, or runs the shard runtimes' ready
// processors and parks, once none is ready, until one arrives, until comes
// due, or the sink reports silence; a protocol panic in a processor it runs
// propagates to the caller. It returns false when nothing
// happened and nothing will: the simulator ran out of events, or real time
// stayed silent for the stall timeout (30 s) — once a fault has fired, for
// OnComplete's wedgeIdle.
func (s *Service) Await(until int64) (bool, error) {
	if s.sink == nil {
		return s.Step()
	}
	return s.wait(until), nil
}

// wait is Await on rt, a function of its own so that the simulator's
// per-event step does not run under its larger frame: with the two in one
// body the regression study took ≈20 % more CPU on a 2-vCPU x86-64 machine.
func (s *Service) wait(until int64) bool {
	for quiet := s.period; !s.sink.Await(until, s.finish); quiet += s.period {
		if st, _ := s.FaultStats(); quiet >= s.stall || st.Any() {
			return false
		}
	}
	return true
}

// Run steps the merged event loop to global quiescence — at once on rt,
// which has no events to step: a driver that saw every completion is done.
func (s *Service) Run() error {
	for {
		if ok, err := s.Step(); err != nil || !ok {
			return err
		}
	}
}

// Now returns the service's clock on its backend. On the simulator it is
// the merged clock, the time of the latest delivered event across all
// shards (never decreasing). On rt it is wall-clock nanoseconds since the
// first shard runtime started; Start and the completion stamps move each
// shard runtime's own clock onto it.
func (s *Service) Now() int64 {
	if len(s.nets) == 1 {
		return s.nets[0].Now()
	}
	return s.mergedNow()
}

// mergedNow is Now past its one-network case, split off and kept out of
// line so that case inlines into the engine's loop, which reads the clock
// per event.
//
//go:noinline
func (s *Service) mergedNow() int64 {
	if s.rts != nil {
		return time.Since(s.origin).Nanoseconds()
	}
	return s.now
}

// TickNs returns the wall duration of one protocol tick in nanoseconds on
// rt, whose clock reads nanoseconds, and 0 on the simulator, whose clock
// reads ticks.
func (s *Service) TickNs() int64 {
	if s.rts == nil {
		return 0
	}
	return s.rts[0].Tick().Nanoseconds()
}

// MessagesTotal sums network messages across all shards.
func (s *Service) MessagesTotal() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.c.MessagesTotal()
	}
	return total
}

// Loads writes the per-processor sent and received message counts summed
// across shards into sent and recv, replacing a slice shorter than N()+1
// (nil) with a fresh one, and returns them: processor p is the same machine
// in every shard's network, so its load is its total traffic over all
// protocols it participates in. The first shard reads straight into the
// caller's slices, offered at full capacity since a shard may span more
// processors than the service (its size rounds up); only further shards go
// through the scratch. A sampler that passes its previous result back
// allocates nothing.
func (s *Service) Loads(sent, recv []int64) ([]int64, []int64) {
	sent, recv = s.shards[0].c.Loads(sent[:cap(sent)], recv[:cap(recv)])
	sent, recv = sent[:s.n+1], recv[:s.n+1]
	for _, sh := range s.shards[1:] {
		s.shardSent, s.shardRecv = sh.c.Loads(s.shardSent, s.shardRecv)
		add(sent, s.shardSent)
		add(recv, s.shardRecv)
	}
	return sent, recv
}

// add accumulates src into dst over the processors both cover.
func add(dst, src []int64) {
	for p := range min(len(dst), len(src)) {
		dst[p] += src[p]
	}
}

// FaultStats sums the fault events fired so far over all shards, and reports
// whether any shard has a fault plan installed.
func (s *Service) FaultStats() (stats sim.FaultStats, active bool) {
	sum := func(st sim.FaultStats) {
		stats.Lost += st.Lost
		stats.Duplicated += st.Duplicated
		stats.CrashDropped += st.CrashDropped
		stats.CrashDeferred += st.CrashDeferred
		stats.TimersCancelled += st.TimersCancelled
	}
	for _, nw := range s.nets {
		active = active || nw.FaultsActive()
		sum(nw.FaultStats())
	}
	for _, r := range s.rts {
		active = active || r.FaultsActive()
		if r.FaultFired() { // the lock-free latch: no injector lock until something fired
			sum(r.FaultStats())
		}
	}
	return stats, active
}

// Close detaches the service from its shard networks and its handlers, and
// shuts down the shard runtimes and the sink. Must be called at quiescence.
func (s *Service) Close() {
	for _, r := range s.rts {
		r.Close()
	}
	for _, sh := range s.shards {
		sh.c.OnOpDone(nil)
	}
	if s.sink != nil {
		s.sink.Close()
	}
	s.done, s.onMigrate = nil, nil
}
