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
	// (window, sim options, backend, rt tuning). Faults are not supported
	// through the service layer.
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
	keys   int
	n      int
	base   int // home shard count (hot shard, if any, is shard index base)
	shards []counter.Valued
	algos  []string
	nets   []*sim.Network // per shard; nil entries on the rt backend
	rts    []*rt.Runtime  // per shard; nil entries on the sim backend

	route    []int // key -> shard
	epoch    []int // key -> routing epoch, bumped at cutover
	frozen   []bool
	inflight []int // in-flight ops per key
	keyOps   []int // completed ops per key, lifetime
	// keyOf[shard][p] is the key of the one operation processor p may have
	// in flight on that shard.
	keyOf [][]int

	mig       *Migration
	hot       int // hot shard index, -1 without migration
	winCount  []int
	winTotal  int
	moves     int
	completed int
	events    []MigrationEvent

	now       int64 // merged simulated clock (max stepped event time)
	done      func(shard, key, epoch int, st *sim.OpStats)
	onMigrate func(MigrationEvent)
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
	if cfg.Registry.Faults != nil {
		return nil, fmt.Errorf("countersvc: fault injection is not supported through the service layer")
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

	s := &Service{
		keys:   cfg.Keys,
		n:      cfg.N,
		base:   cfg.Shards,
		algos:  algos,
		mig:    mig,
		hot:    -1,
		shards: make([]counter.Valued, len(algos)),
		nets:   make([]*sim.Network, len(algos)),
		rts:    make([]*rt.Runtime, len(algos)),
		keyOf:  make([][]int, len(algos)),
	}
	if mig != nil {
		s.hot = len(algos) - 1
		s.winCount = make([]int, cfg.Keys)
	}
	rtBackend := cfg.Registry.Backend == "rt"
	for i, name := range algos {
		c, err := registry.NewWith(name, cfg.N, cfg.Registry)
		if err != nil {
			return nil, fmt.Errorf("countersvc: shard %d: %w", i, err)
		}
		v, ok := c.(counter.Valued)
		if !ok {
			return nil, fmt.Errorf("countersvc: shard %d algorithm %q is not value-readable", i, name)
		}
		if c.N() < cfg.N {
			return nil, fmt.Errorf("countersvc: shard %d algorithm %q built %d < %d processors", i, name, c.N(), cfg.N)
		}
		s.shards[i] = v
		s.keyOf[i] = make([]int, c.N()+1)
		if rtBackend {
			s.rts[i] = c.(*rt.Runtime)
		} else {
			nw := c.Net()
			s.nets[i] = nw
			shard := i
			nw.OnOpDone(func(st *sim.OpStats) { s.noteDone(shard, st) })
		}
	}

	s.route = make([]int, cfg.Keys)
	s.epoch = make([]int, cfg.Keys)
	s.frozen = make([]bool, cfg.Keys)
	s.inflight = make([]int, cfg.Keys)
	s.keyOps = make([]int, cfg.Keys)
	for k := range s.route {
		s.route[k] = s.HomeShard(k)
	}
	return s, nil
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
func (s *Service) Keys() int { return s.keys }

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
func (s *Service) Algo(shard int) string { return s.algos[shard] }

// Counter returns a shard's counter instance.
func (s *Service) Counter(shard int) counter.Valued { return s.shards[shard] }

// Net returns a shard's simulated network, nil on the rt backend.
func (s *Service) Net(shard int) *sim.Network { return s.nets[shard] }

// RT returns a shard's runtime, nil on the sim backend.
func (s *Service) RT(shard int) *rt.Runtime { return s.rts[shard] }

// DeliverTo merges the rt backend's completion streams into sink: every
// shard runtime delivers under its shard index. A no-op on the sim backend.
// The consumer must call CompleteRT for every completion it takes out of the
// sink to keep the service's routing state current.
func (s *Service) DeliverTo(sink *rt.Sink) {
	for shard, r := range s.rts {
		if r != nil {
			r.OnOpDone(func(d rt.OpDone) { sink.Put(shard, d) })
		}
	}
}

// RouteFor returns the shard a key currently routes to and whether the key
// is open for admission (false while frozen for migration drain).
func (s *Service) RouteFor(key int) (shard int, open bool) {
	return s.route[key], !s.frozen[key]
}

// Epoch returns a key's routing epoch: 0 until its first migration. An
// operation's (key, epoch) recorded at Start identifies the one shard the
// operation ran on — the drain protocol guarantees no op straddles a
// cutover.
func (s *Service) Epoch(key int) int { return s.epoch[key] }

// InFlight returns the number of in-flight operations of a key.
func (s *Service) InFlight(key int) int { return s.inflight[key] }

// KeyOps returns the completed-operation count of a key.
func (s *Service) KeyOps(key int) int { return s.keyOps[key] }

// Migrations returns the completed cutovers, in order.
func (s *Service) Migrations() []MigrationEvent { return s.events }

// OnOpDone registers the sim-backend completion handler, invoked after the
// service's own bookkeeping (routing, migration) for the completed op.
// epoch is the key's routing epoch the operation RAN at — captured before
// any cutover its own completion triggered, so a verifier always files the
// op under the shard that actually executed it.
func (s *Service) OnOpDone(fn func(shard, key, epoch int, st *sim.OpStats)) { s.done = fn }

// OnMigrate registers a cutover observer (both backends).
func (s *Service) OnMigrate(fn func(MigrationEvent)) { s.onMigrate = fn }

// Start injects one increment for key by processor p at absolute simulated
// time at (on the rt backend: right now) and returns the shard it routed to
// plus the shard-local operation id. Callers must respect RouteFor: a
// frozen key must not be started, and at most one operation per (shard,
// initiator) may be in flight.
func (s *Service) Start(at int64, key int, p sim.ProcID) (shard int, id sim.OpID) {
	shard = s.route[key]
	if s.frozen[key] {
		panic(fmt.Sprintf("countersvc: Start on frozen key %d", key))
	}
	if s.rts[shard] != nil {
		// The shard stamps the operation on its own clock: at is on the merged
		// one (NowNs), which carries the shards' construction offsets.
		at = 0
	}
	id = s.shards[shard].Start(at, p)
	s.keyOf[shard][p] = key
	s.inflight[key]++
	return shard, id
}

// complete is the per-completion bookkeeping shared by both backends:
// in-flight accounting, hotspot detection, and the drain-triggered cutover.
// It returns the op's key and the routing epoch it ran at (pre-cutover).
func (s *Service) complete(shard int, initiator sim.ProcID) (key, epoch int) {
	key = s.keyOf[shard][initiator]
	epoch = s.epoch[key]
	s.inflight[key]--
	s.keyOps[key]++
	s.completed++
	if s.mig != nil {
		s.observe(key)
	}
	if s.frozen[key] && s.inflight[key] == 0 {
		s.cutover(key)
	}
	return key, epoch
}

// noteDone is the sim backend's completion hook: the bookkeeping, then the
// OnOpDone observer.
func (s *Service) noteDone(shard int, st *sim.OpStats) {
	key, epoch := s.complete(shard, st.Initiator)
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
	s.winCount[key]++
	s.winTotal++
	if s.winTotal < s.mig.CheckEvery {
		return
	}
	hotKey, hotCount := 0, 0
	for k, c := range s.winCount {
		if c > hotCount {
			hotKey, hotCount = k, c
		}
		s.winCount[k] = 0
	}
	total := s.winTotal
	s.winTotal = 0
	if s.moves >= s.mig.MaxMoves {
		return
	}
	if float64(hotCount) < s.mig.HotShare*float64(total) {
		return
	}
	if s.route[hotKey] == s.hot || s.frozen[hotKey] {
		return
	}
	s.frozen[hotKey] = true
	if s.inflight[hotKey] == 0 {
		s.cutover(hotKey)
	}
}

// cutover flips a drained, frozen key to the hot shard and bumps its epoch.
func (s *Service) cutover(key int) {
	if s.inflight[key] != 0 {
		panic(fmt.Sprintf("countersvc: cutover of key %d with %d ops in flight", key, s.inflight[key]))
	}
	ev := MigrationEvent{Key: key, From: s.route[key], To: s.hot, AtCompleted: s.completed}
	s.route[key] = s.hot
	s.epoch[key]++
	s.frozen[key] = false
	s.moves++
	s.events = append(s.events, ev)
	if s.onMigrate != nil {
		s.onMigrate(ev)
	}
}

// NextAt returns the earliest queued event time across all shard networks
// (sim backend); ok is false at global quiescence.
func (s *Service) NextAt() (int64, bool) {
	best, ok := int64(0), false
	for _, nw := range s.nets {
		if at, have := nw.NextAt(); have && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// Step delivers the globally earliest queued event (ties broken by lowest
// shard index, keeping the merged schedule deterministic); ok is false at
// global quiescence.
func (s *Service) Step() (bool, error) {
	shard := -1
	var at int64
	for i, nw := range s.nets {
		if t, have := nw.NextAt(); have && (shard < 0 || t < at) {
			shard, at = i, t
		}
	}
	if shard < 0 {
		return false, nil
	}
	// Advance the merged clock before delivering: completion callbacks run
	// inside Step and must see Now() == the event time they run at (an
	// engine driver clamps its next injections to Now()).
	if at > s.now {
		s.now = at
	}
	if _, err := s.nets[shard].Step(); err != nil {
		return false, err
	}
	return true, nil
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

// Now returns the merged simulated clock: the time of the latest delivered
// event across all shards (never decreasing).
func (s *Service) Now() int64 { return s.now }

// NowNs returns the rt backend's merged wall clock: the max of the shard
// runtimes' NowNs. Each runtime's clock is relative to its own start, so
// the merged clock carries the (microsecond-scale) construction offsets —
// fine for measure-window bookkeeping, and verification never compares
// timestamps across shards (shard and (key, epoch) partitions are both
// within one runtime).
func (s *Service) NowNs() int64 {
	var max int64
	for _, r := range s.rts {
		if r != nil {
			if t := r.NowNs(); t > max {
				max = t
			}
		}
	}
	return max
}

// MessagesTotal sums network messages across all shards.
func (s *Service) MessagesTotal() int64 {
	var total int64
	for i := range s.shards {
		if s.rts[i] != nil {
			total += s.rts[i].MessagesTotal()
		} else {
			total += s.nets[i].MessagesTotal()
		}
	}
	return total
}

// Loads returns per-processor sent and received message counts summed
// across shards: processor p is the same machine in every shard's network,
// so its load is its total traffic over all protocols it participates in.
func (s *Service) Loads() (sent, recv []int64) {
	sent = make([]int64, s.n+1)
	recv = make([]int64, s.n+1)
	add := func(dst []int64, src []int64) {
		for p := 0; p < len(src) && p < len(dst); p++ {
			dst[p] += src[p]
		}
	}
	for i := range s.shards {
		if s.rts[i] != nil {
			sSent, sRecv := s.rts[i].Loads()
			add(sent, sSent)
			add(recv, sRecv)
		} else {
			add(sent, s.nets[i].Sent())
			add(recv, s.nets[i].Recv())
		}
	}
	return sent, recv
}

// Close shuts down rt-backend runtimes; a no-op on the sim backend. Must be
// called at quiescence.
func (s *Service) Close() {
	for _, r := range s.rts {
		if r != nil {
			r.Close()
		}
	}
}
