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
// counter or many — through a Service, so the backend is decided here and
// nowhere downstream. Fault plans (registry.Config.Faults) reach every shard
// as given: crash windows and churn name machines, and processor p is the
// same machine in every shard (see Loads).
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

// Service routes keyed increments to shards. It is driven the way a single
// counter.Async is driven: Start injects, the merged event loop (sim) or the
// completion sink (rt, DeliverTo) delivers completions. Not safe for
// concurrent use; the engine drivers own it from one goroutine.
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
	// rtSent, rtRecv are the scratch one rt shard's loads are snapshotted
	// into on their way into a Loads sum.
	rtSent, rtRecv []int64

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
	done      func(shard, key, epoch int, st *sim.OpStats)
	onMigrate func(MigrationEvent)
}

// shard is one counter instance of the service.
type shard struct {
	c    counter.Valued
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
			return nil, fmt.Errorf("countersvc: shard %d: %w", i, err)
		}
		if err := s.attach(i, name, c); err != nil {
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
func (s *Service) attach(i int, algo string, c counter.Async) error {
	v, ok := c.(counter.Valued)
	if !ok {
		return fmt.Errorf("countersvc: shard %d algorithm %q does not expose per-operation values (counter.Valued)", i, c.Name())
	}
	if c.N() < s.n {
		return fmt.Errorf("countersvc: shard %d algorithm %q built %d < %d processors", i, c.Name(), c.N(), s.n)
	}
	r, isRT := c.(*rt.Runtime)
	nw := c.Net()
	switch {
	case !isRT && nw == nil:
		return fmt.Errorf("countersvc: counter %q has no simulated network to drive", c.Name())
	case isRT && r.Ops() != 0, !isRT && (nw.Now() != 0 || nw.Ops() != 0):
		return fmt.Errorf("countersvc: %s has already run; build a fresh counter, runtime or service per run", c.Name())
	}
	s.shards[i] = shard{c: v, algo: algo}
	if isRT {
		s.rts = append(s.rts, r)
	} else {
		if s.nets == nil {
			s.nets = make([]*sim.Network, 0, len(s.shards))
		}
		s.nets = append(s.nets, nw)
		nw.OnOpDone(func(st *sim.OpStats) { s.noteDone(i, st) })
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
func (s *Service) Counter(shard int) counter.Valued { return s.shards[shard].c }

// DeliverTo merges the rt backend's completion streams into sink: every
// shard runtime delivers under its shard index, its stamps moved onto the
// service's clock (Now) — each runtime counts from its own start, and the
// service's clock from the earliest. A no-op on the sim backend. The
// consumer must call CompleteRT for every completion it takes out of the
// sink to keep the service's routing state current.
func (s *Service) DeliverTo(sink *rt.Sink) {
	var origin time.Time
	for i, r := range s.rts {
		if i == 0 || r.Origin().Before(origin) {
			origin = r.Origin()
		}
	}
	for shard, r := range s.rts {
		lag := r.Origin().Sub(origin).Nanoseconds()
		r.OnOpDone(func(d rt.OpDone) {
			d.StartNs += lag
			d.DoneNs += lag
			sink.Put(shard, d)
		})
	}
}

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

// OnOpDone registers the sim-backend completion handler, invoked after the
// service's own bookkeeping (routing, migration) for the completed op.
// epoch is the key's routing epoch the operation RAN at — captured before
// any cutover its own completion triggered, so a verifier always files the
// op under the shard that actually executed it. The shard network has
// already forgotten the operation (Network.ForgetOp), so a long run keeps no
// per-operation record: read st before the handler starts another operation,
// which may recycle it.
func (s *Service) OnOpDone(fn func(shard, key, epoch int, st *sim.OpStats)) { s.done = fn }

// OnMigrate registers a cutover observer (both backends).
func (s *Service) OnMigrate(fn func(MigrationEvent)) { s.onMigrate = fn }

// Start injects one increment for key by processor p at absolute simulated
// time at (on the rt backend: right now) and returns the shard it routed to
// plus the shard-local operation id. Callers must respect RouteFor: a
// frozen key must not be started, p must be one of the N() processors
// requests may target, and at most one operation per (shard, initiator) may
// be in flight.
func (s *Service) Start(at int64, key int, p sim.ProcID) (shard int, id sim.OpID) {
	k := &s.keys[key]
	if k.frozen {
		panic(fmt.Sprintf("countersvc: Start on frozen key %d", key))
	}
	if p < 1 || int(p) > s.n {
		panic(fmt.Sprintf("countersvc: Start by processor %d outside [1,%d]", p, s.n))
	}
	shard = k.shard
	if len(s.rts) > 1 {
		// The shard stamps the operation on its own clock: at is on the merged
		// one (Now), which carries the shards' construction offsets. A lone
		// runtime's clock is the merged one, so its caller's reading stands.
		at = 0
	}
	id = s.shards[shard].c.Start(at, p)
	if s.next != nil {
		s.refresh(shard)
	}
	s.keyOf[shard*(s.n+1)+int(p)] = key
	k.inflight++
	return shard, id
}

// complete is the per-completion bookkeeping shared by both backends:
// in-flight accounting, hotspot detection, and the drain-triggered cutover.
// It returns the op's key and the routing epoch it ran at (pre-cutover).
func (s *Service) complete(shard int, initiator sim.ProcID) (key, epoch int) {
	key = s.keyOf[shard*(s.n+1)+int(initiator)]
	k := &s.keys[key]
	epoch = k.epoch
	k.inflight--
	k.ops++
	s.completed++
	if s.mig != nil {
		s.observe(key)
	}
	if k.frozen && k.inflight == 0 {
		s.cutover(key)
	}
	return key, epoch
}

// noteDone is the sim backend's completion hook: the bookkeeping, then the
// OnOpDone observer. The shard network forgets the op first, so its record
// is recycled by the next start — the handler's, if it starts one.
func (s *Service) noteDone(shard int, st *sim.OpStats) {
	key, epoch := s.complete(shard, st.Initiator)
	s.nets[shard].ForgetOp(st.ID)
	if s.done != nil {
		s.done(shard, key, epoch, st)
	}
}

// CompleteRT performs the service bookkeeping for one rt-backend completion
// taken out of the DeliverTo sink, returning the op's key and the routing
// epoch it ran at (pre-cutover, like OnOpDone's). Must be called from the
// single driver goroutine.
func (s *Service) CompleteRT(d rt.Completion) (key, epoch int) {
	return s.complete(d.Shard, d.Initiator)
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

// Run steps the merged event loop to global quiescence.
func (s *Service) Run() error {
	for {
		ok, err := s.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// Now returns the service's clock on its backend. On the simulator it is
// the merged clock, the time of the latest delivered event across all
// shards (never decreasing). On rt it is wall-clock nanoseconds, the max of
// the shard runtimes' NowNs: each runtime's clock is relative to its own
// start, so the merged clock is the earliest-built runtime's, and DeliverTo
// moves every shard's completion stamps onto it.
func (s *Service) Now() int64 {
	if len(s.nets) == 1 {
		return s.nets[0].Now()
	}
	return s.mergedNow()
}

// mergedNow is Now past its one-network case, split off so that case
// inlines into the engine's loop, which reads the clock per event.
func (s *Service) mergedNow() int64 {
	now := s.now
	for _, r := range s.rts {
		now = max(now, r.NowNs())
	}
	return now
}

// MessagesTotal sums network messages across all shards.
func (s *Service) MessagesTotal() int64 {
	var total int64
	for _, nw := range s.nets {
		total += nw.MessagesTotal()
	}
	for _, r := range s.rts {
		total += r.MessagesTotal()
	}
	return total
}

// Loads writes the per-processor sent and received message counts summed
// across shards into sent and recv, replacing a slice shorter than N()+1
// (nil) with a fresh one, and returns them: processor p is the same machine
// in every shard's network, so its load is its total traffic over all
// protocols it participates in. A sampler that passes its previous result
// back allocates nothing.
func (s *Service) Loads(sent, recv []int64) ([]int64, []int64) {
	sent, recv = zeroed(sent, s.n+1), zeroed(recv, s.n+1)
	for _, nw := range s.nets {
		add(sent, nw.Sent())
		add(recv, nw.Recv())
	}
	for _, r := range s.rts {
		s.rtSent, s.rtRecv = r.Loads(s.rtSent, s.rtRecv)
		add(sent, s.rtSent)
		add(recv, s.rtRecv)
	}
	return sent, recv
}

// zeroed returns v cleared to length n, or a fresh slice when v is shorter.
func zeroed(v []int64, n int) []int64 {
	if len(v) < n {
		return make([]int64, n)
	}
	v = v[:n]
	clear(v)
	return v
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

// Close detaches the service from its shard networks and shuts down the
// shard runtimes. Must be called at quiescence.
func (s *Service) Close() {
	for _, nw := range s.nets {
		nw.OnOpDone(nil)
	}
	for _, r := range s.rts {
		r.Close()
	}
}
