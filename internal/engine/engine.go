// Package engine drives a distributed counter with a concurrent workload in
// one of two admission disciplines:
//
//   - Closed loop (the default): a configurable number of operations is kept
//     in flight; each request is injected at its scenario arrival time and
//     the next one the moment an operation completes. Throughput and
//     latency stay coupled — the driver can never push the system past its
//     capacity, which is the right instrument for comparing algorithms at a
//     fixed concurrency level.
//
//   - Open loop: requests are admitted at their generator arrival time
//     regardless of how many operations are already in flight, with a
//     bounded admission queue absorbing requests whose initiator is still
//     busy (the one protocol invariant the driver must preserve is at most
//     one operation per initiator). Offered load is therefore independent
//     of completions, so the driver can push an algorithm past its
//     saturation knee and measure what the closed loop structurally cannot:
//     latency divergence under overload. Open-loop runs additionally report
//     per-rate-bucket statistics and a detected saturation knee (see Knee).
//
// The paper studies its Ω(k) bottleneck at quiescence — one operation at a
// time ("enough time elapses in between any two inc requests"). The engine
// is the instrument for the complementary question the ROADMAP asks: how
// does the bottleneck behave under load? Combined with the simulator's
// receiver-side service-time model (sim.WithServiceTime), the bottleneck's
// message load becomes a throughput ceiling, and the open-loop ramp makes
// the paper's prediction observable as a saturation point.
//
// Each loop is written once (loop.go) against countersvc.Service, the only
// layer that knows which backend runs: RunKeyed drives a sharded service,
// and Run drives a single counter as the service's one-key, one-shard case
// (countersvc.Single). The loops start operations, ask the service whether
// an arrival is due, wait on it and take its completions, one record shape
// on either backend — a simulator-backed service in ticks, exactly
// reproducible per scenario seed, a real-hardware one in wall-clock ns and
// ops/sec. One metrics type derives every report field from the service's
// clock and loads. The generator and the metrics run on goroutines of their
// own beside the driving loop, a batch ahead and a batch behind it
// (stages.go); no report depends on how the three are scheduled.
//
// See docs/ARCHITECTURE.md for where the engine sits between internal/workload
// and internal/engine/report, and docs/EXPERIMENTS.md for a runnable cookbook.
package engine

import (
	"fmt"
	"strings"
	"time"

	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/loadstat"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/verify"
	"distcount/internal/workload"
)

// Mode selects the admission discipline of the load driver.
type Mode int

const (
	// Closed is the closed-loop mode: at most Config.InFlight operations
	// in flight, the next request admitted on completion.
	Closed Mode = iota
	// Open is the open-loop mode: requests admitted at their arrival time
	// regardless of the number in flight, queueing (bounded) only when
	// their initiator is busy.
	Open
)

// String returns "closed" or "open", the values used in reports and on the
// loadgen -mode flag.
func (m Mode) String() string {
	if m == Open {
		return "open"
	}
	return "closed"
}

// ParseMode converts "closed" or "open" to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "closed":
		return Closed, nil
	case "open":
		return Open, nil
	}
	return Closed, fmt.Errorf("engine: unknown mode %q (have closed, open)", s)
}

// Config tunes the driver.
type Config struct {
	// Mode selects closed-loop (default) or open-loop admission.
	Mode Mode
	// InFlight is the closed-loop window: the maximum number of operations
	// concurrently in flight (default 8). The driver admits requests in
	// arrival order and never keeps more than one operation per initiating
	// processor in flight, so a hot-spot stream may not reach the window.
	// Ignored in open-loop mode, where concurrency is bounded only by the
	// number of processors.
	InFlight int
	// Ops is a capacity hint: the number of completions the run is expected
	// to produce. It sizes the one per-operation record a run still keeps —
	// the open loop's request records — in one shot instead of growing it by
	// doubling mid-run, and the bottleneck series; the metrics and the
	// verifier keep nothing per operation and ignore it. When 0 the engine
	// falls back to the scenario's length hint (generators implementing
	// Len() int). Purely a performance hint: a wrong value changes
	// allocation behavior, never results.
	Ops int
	// QueueCap bounds the open-loop admission queue: requests that arrive
	// while their initiator is busy wait here; a request arriving when the
	// queue is full is dropped and counted in Result.Dropped (default
	// 4096). Ignored in closed-loop mode.
	QueueCap int
	// Warmup is the number of completions excluded from latency,
	// throughput and load-imbalance measurements while the system fills
	// its pipeline (default 0). Must leave at least one measured op.
	Warmup int
	// SampleEvery is the stride, in completions, of the bottleneck-load
	// time series. The default derives max(1, length/64) from the
	// scenario's length hint (generators implementing Len() int); without
	// a hint the engine samples every completion and thins to 64 points
	// afterwards.
	SampleEvery int
	// KneeBuckets is the number of arrival-ordered buckets the open-loop
	// saturation analysis divides the run into (default 16).
	KneeBuckets int
	// Verify enables value-correctness checking: every completed
	// operation's delivered value is checked, as the run goes, against the
	// algorithm's claimed consistency level (linearizability for
	// central/ctree/combining, quiescent consistency for the counting and
	// diffracting networks, duplicate-value accounting for the protocols
	// that are only sequentially correct). The result is attached as
	// Result.Verification; values are read back per operation with
	// counter.Async.OpValue.
	Verify bool
	// WedgeIdle is the wall-clock drivers' stall timeout once a fault has
	// fired (default 2s): a run whose fault plan has destroyed events may
	// legitimately never complete its in-flight operations, so after the
	// first fault event the drivers wait only this long for further
	// completions before declaring the remainder wedged. Fault-free wall
	// runs keep the generous 30s stall timeout (a stall there is a driver
	// error, not a wedge). Ignored by the simulator drivers, which detect a
	// wedge by running out of events.
	WedgeIdle time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.InFlight < 1 {
		cfg.InFlight = 8
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 4096
	}
	if cfg.Warmup < 0 {
		cfg.Warmup = 0
	}
	if cfg.KneeBuckets < 2 {
		cfg.KneeBuckets = 16
	}
	if cfg.WedgeIdle <= 0 {
		cfg.WedgeIdle = 2 * time.Second
	}
	return cfg
}

// Sample is one point of the bottleneck-load time series, taken after a
// completion. Loads are cumulative since the start of the run (the paper's
// m_p is monotone); a sample is one allocation-free O(n) scan of them, at the
// stride Config.SampleEvery sets.
type Sample struct {
	// SimTime is the simulated time of the completion that triggered the
	// sample.
	SimTime int64 `json:"sim_time"`
	// Completed is the number of operations completed so far.
	Completed int `json:"completed"`
	// Bottleneck is the processor currently carrying the maximum load m_b,
	// and BottleneckLoad that load.
	Bottleneck     int   `json:"bottleneck"`
	BottleneckLoad int64 `json:"bottleneck_load"`
	// MeanLoad is the mean per-processor load.
	MeanLoad float64 `json:"mean_load"`
	// InFlight is the number of operations in flight after the completion;
	// QueueDepth the open-loop admission-queue depth (always 0 in closed
	// loop, whose queue is the generator itself).
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`
}

// LatencyStats summarizes a latency distribution in simulated ticks.
type LatencyStats struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  int64   `json:"max"`
	// Min is the smallest sample. It is left out of JSON so the committed
	// report bytes (study goldens, baselines) stay as recorded.
	Min int64 `json:"-"`
}

// Result is the workload report of one engine run.
type Result struct {
	// Algorithm and Scenario identify what ran; Mode is "closed" or "open".
	Algorithm string `json:"algorithm"`
	Scenario  string `json:"scenario"`
	Mode      string `json:"mode"`
	// N is the network size; Ops the number of completed operations, of
	// which Measured were inside the measure window.
	N        int `json:"n"`
	Ops      int `json:"ops"`
	Warmup   int `json:"warmup"`
	Measured int `json:"measured"`
	// InFlight echoes the configured closed-loop window (0 in open-loop
	// mode); PeakInFlight is the largest number of operations
	// simultaneously in flight in simulated time (an operation is in
	// flight from its start event to its completion, so queued or
	// not-yet-arrived requests do not count). On a shared tick a completion
	// and a start are not concurrent — the closed loop admits the successor
	// from the completion — and an operation that completes within its own
	// start event occupies that tick.
	InFlight     int `json:"in_flight"`
	PeakInFlight int `json:"peak_in_flight"`
	// QueueCap echoes the open-loop admission-queue bound; PeakQueueDepth
	// is the deepest the queue got, and Dropped the number of requests
	// shed because the queue was full. All zero in closed-loop mode.
	QueueCap       int `json:"queue_cap,omitempty"`
	PeakQueueDepth int `json:"peak_queue_depth,omitempty"`
	Dropped        int `json:"dropped,omitempty"`
	// Arrivals is the number of requests the scenario offered over the
	// whole run: completions plus drops. In closed-loop mode every arrival
	// completes, so Arrivals == Ops; in open-loop mode the difference is
	// the shed load. DropRate is Dropped/Arrivals — the fraction of offered
	// load the admission queue refused, a first-class overload metric next
	// to the knee.
	Arrivals int     `json:"arrivals"`
	DropRate float64 `json:"drop_rate"`
	// SimTime is the simulated makespan of the run — the completion time
	// of the last operation (trailing maintenance events such as stale
	// prism timers are excluded); MeasureStart the simulated time at which
	// the measure window opened.
	SimTime      int64 `json:"sim_time"`
	MeasureStart int64 `json:"measure_start"`
	// Throughput is measured operations per simulated tick.
	Throughput float64 `json:"throughput"`
	// Latency summarizes the measured operations' end-to-end latencies
	// (scenario arrival to completion). QueueDelay is the portion spent
	// waiting for admission (arrival to injection: the closed loop's
	// window throttling, the open loop's busy-initiator queue), and
	// ServiceLatency the in-network portion (injection to completion);
	// mean(Latency) = mean(QueueDelay) + mean(ServiceLatency). Simulated
	// digests are exact. On a wall-clock run (Wall) every Mean is exact and
	// so is every sample below 65 536 ns, but larger samples are rounded to
	// 10 significant bits and counted in at most 24 pages of a digest: a
	// quantile, Min or Max of 65 536 ns or more is within a relative 2^-10
	// (0.1 %) of the exact one, and an rt run's digests hold constant memory.
	Latency        LatencyStats `json:"latency"`
	QueueDelay     LatencyStats `json:"queue_delay"`
	ServiceLatency LatencyStats `json:"service_latency"`
	// Messages is the total number of network messages over the whole run.
	// MessagesPerOp is the per-operation message cost inside the measure
	// window — measure-window messages (from the simulator's send counters,
	// warmup traffic excluded) divided by measured completions. It is the
	// paper's message-count currency as an engine metric: request-merging
	// schemes drive it below the tree's fixed cost under concurrency, and a
	// regression in it moves every load-derived metric with it.
	Messages      int64   `json:"messages"`
	MessagesPerOp float64 `json:"messages_per_op"`
	// Loads summarizes the per-processor loads accumulated inside the
	// measure window only (warmup traffic excluded): bottleneck, mean,
	// Gini.
	Loads loadstat.Summary `json:"loads"`
	// Series is the bottleneck-load time series over cumulative loads.
	Series []Sample `json:"series"`
	// Buckets is the open-loop per-rate-bucket breakdown (nil in closed
	// loop), and Knee the detected saturation point (nil when the run
	// never saturates — and always nil in closed loop, which throttles
	// admission to completions and so cannot drive the system past its
	// knee).
	Buckets []RateBucket `json:"buckets,omitempty"`
	Knee    *Knee        `json:"knee,omitempty"`
	// Verification is the value-correctness report of the run (nil unless
	// Config.Verify was set): the delivered values evaluated against the
	// algorithm's claimed consistency level.
	Verification *verify.Report `json:"verification,omitempty"`
	// Wedged is the number of operations stalled forever by injected faults
	// (a fault destroyed one of their events, so they can never complete);
	// Unserved counts scenario requests never injected because their
	// initiator — or the whole run — wedged first. Both are zero without
	// fault injection: a fault-free run that cannot drain is a driver error,
	// not a wedge.
	Wedged   int `json:"wedged,omitempty"`
	Unserved int `json:"unserved,omitempty"`
	// Faults reports the injected-fault events that fired during the run
	// (nil when no fault plan was installed).
	Faults *sim.FaultStats `json:"faults,omitempty"`
	// Keys and Shards describe a keyed (multi-counter service) run driven
	// through RunKeyed: the number of keys the workload addressed and the
	// number of shards (counter instances) serving them, dedicated hot
	// shard included. Both are zero on single-counter runs. ShardAlgos
	// lists each shard's algorithm, indexed by shard.
	Keys       int      `json:"keys,omitempty"`
	Shards     int      `json:"shards,omitempty"`
	ShardAlgos []string `json:"shard_algos,omitempty"`
	// PerKey breaks the run down by key: final shard routing, completed
	// operations, and mean end-to-end latency over the measured window.
	PerKey []KeyStat `json:"per_key,omitempty"`
	// Migrations lists the hot-key cutovers the service performed, in
	// order (nil without migration or when none triggered).
	Migrations []countersvc.MigrationEvent `json:"migrations,omitempty"`
	// KeyedVerification is the full sharded verification report of a keyed
	// run (nil unless Config.Verify): per-shard histories evaluated at each
	// shard's claimed level plus per-(key, epoch) segment checks. Its
	// Summary is also attached as Verification so existing gates and
	// renderers treat keyed runs uniformly.
	KeyedVerification *verify.KeyedReport `json:"keyed_verification,omitempty"`
	// Wall reports that the run executed on the real-hardware rt backend
	// (the service reported a nonzero TickNs). Then every time-valued field
	// — SimTime, MeasureStart, the latency digests, Series times, bucket
	// spans — is in wall-clock nanoseconds instead of simulated ticks, and
	// every rate — Throughput, the buckets' and knee's OfferedRate — is in
	// operations per second instead of operations per tick. TickNs records
	// the wall duration of one simulated tick the backend was configured
	// with, the conversion factor for comparing against a sim-backend run of
	// the same cell (1 op/tick predicts 1e9/TickNs ops/sec).
	Wall   bool  `json:"wall,omitempty"`
	TickNs int64 `json:"tick_ns,omitempty"`
}

// KeyStat is one key's aggregate outcome in a keyed run.
type KeyStat struct {
	Key int `json:"key"`
	// Shard is the key's final routing (post-migration for a migrated key).
	Shard int `json:"shard"`
	// Ops is the key's completed-operation count over the whole run.
	Ops int `json:"ops"`
	// MeanLatency is the mean end-to-end latency of the key's measured
	// operations (0 when none fell inside the measure window).
	MeanLatency float64 `json:"mean_latency"`
}

// Run drives the counter with the scenario until the generator is
// exhausted and every admitted operation has completed, in the mode
// selected by cfg, on whichever backend the counter was built on: a
// simulator-backed counter runs in simulated ticks, a runtime of the rt
// backend in wall time. The scenario's tick-denominated arrival times are
// then scaled by the runtime's tick duration and paced in real time, so the
// same generator offers the same logical load to both backends, and the
// result reports wall-clock nanoseconds and operations per second
// (Result.Wall). The generator is read ahead on a goroutine of its own until
// Run returns, so nothing else may use it meanwhile.
func Run(c counter.Async, gen workload.Generator, cfg Config) (*Result, error) {
	svc, err := countersvc.Single(c)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return drive(svc, &Result{Algorithm: c.Name(), N: c.N()}, gen, cfg)
}

// RunWall is Run. It is kept only for the benchmark harness under bench/,
// whose sources are frozen, and goes once the harness calls Run.
func RunWall(r *rt.Runtime, gen workload.Generator, cfg Config) (*Result, error) {
	return Run(r, gen, cfg)
}

// RunKeyed drives a multi-key counting service with a keyed scenario until
// the generator is exhausted and every admitted operation has completed —
// the service-layer analog of Run. The admission discipline is cfg.Mode's,
// with one addition: a key frozen for migration drain is held at admission
// (closed loop: head-of-line; open loop: in its initiator's queue) until the
// cutover reopens it. The backend follows the service's: shards built on
// the rt backend are driven in real time and the result is reported in wall
// units (Result.Wall), sim-backed shards run on the merged deterministic
// event loop.
func RunKeyed(svc *countersvc.Service, gen workload.Generator, cfg Config) (*Result, error) {
	res, err := drive(svc, &Result{
		Algorithm:  serviceLabel(svc),
		N:          svc.N(),
		Keys:       svc.Keys(),
		Shards:     svc.Shards(),
		ShardAlgos: shardAlgoList(svc),
	}, gen, cfg)
	if err != nil {
		return nil, err
	}
	// The service is the authority on where each key ended up and how often
	// it was served; the metrics only know the measured latencies.
	for k := range res.PerKey {
		res.PerKey[k].Shard, _ = svc.RouteFor(k)
		res.PerKey[k].Ops = svc.KeyOps(k)
	}
	if evs := svc.Migrations(); len(evs) > 0 {
		res.Migrations = append([]countersvc.MigrationEvent(nil), evs...)
	}
	return res, nil
}

// serviceLabel names a keyed run's "algorithm": the home-shard algorithm(s)
// plus the hot shard's, e.g. "svc(central[4]+combining)".
func serviceLabel(svc *countersvc.Service) string {
	homes := svc.Algo(0)
	uniform := true
	for s := 1; s < svc.BaseShards(); s++ {
		if svc.Algo(s) != homes {
			uniform = false
			break
		}
	}
	var b strings.Builder
	b.WriteString("svc(")
	if uniform {
		fmt.Fprintf(&b, "%s[%d]", homes, svc.BaseShards())
	} else {
		for s := 0; s < svc.BaseShards(); s++ {
			if s > 0 {
				b.WriteString(",")
			}
			b.WriteString(svc.Algo(s))
		}
	}
	if hot := svc.HotShard(); hot >= 0 {
		fmt.Fprintf(&b, "+%s", svc.Algo(hot))
	}
	b.WriteString(")")
	return b.String()
}

// shardAlgoList copies the per-shard algorithm names out of the service.
func shardAlgoList(svc *countersvc.Service) []string {
	algos := make([]string, svc.Shards())
	for s := range algos {
		algos[s] = svc.Algo(s)
	}
	return algos
}

// source pulls the request stream one ahead, so admission can stop at a
// busy initiator or a future arrival without losing the request. It reads
// the producer's batches (stages.go); name is the generator's, read before
// the producer took it over.
type source struct {
	reqs    *ring[workload.Request]
	batch   []workload.Request // the batch being read, from next on
	next    int
	name    string
	n       int
	keys    int // key-space bound for keyed runs; 0 = a single counter, every request on key 0
	head    workload.Request
	have    bool
	arrival int64 // absolute arrival time of head, in scenario ticks
	err     error // sticky: a malformed request stops the stream
}

func newSource(reqs *ring[workload.Request], name string, n, keys int) *source {
	s := &source{reqs: reqs, name: name, n: n, keys: keys}
	s.pull()
	return s
}

func (s *source) pull() {
	if s.next == len(s.batch) {
		if s.batch != nil {
			s.reqs.recycle(s.batch)
		}
		var ok bool
		if s.batch, ok = s.reqs.next(); !ok {
			s.have = false
			return
		}
		s.next = 0
	}
	req := s.batch[s.next]
	s.next++
	if req.Proc < 1 || int(req.Proc) > s.n {
		s.err = fmt.Errorf("engine: scenario %q targets processor %v outside [1,%d]",
			s.name, req.Proc, s.n)
		s.have = false
		return
	}
	if s.keys == 0 {
		req.Key = 0
	} else if req.Key < 0 || req.Key >= s.keys {
		s.err = fmt.Errorf("engine: scenario %q addresses key %d outside [0,%d)",
			s.name, req.Key, s.keys)
		s.have = false
		return
	}
	s.arrival += req.Gap
	s.head, s.have = req, true
}

// opsHint resolves the expected completion count used to size the open
// loop's request records and the series: Config.Ops when set, else the
// scenario's length hint, else 0 (grow-by-append).
func opsHint(cfg Config, gen workload.Generator) int {
	if cfg.Ops > 0 {
		return cfg.Ops
	}
	if sized, ok := gen.(interface{ Len() int }); ok {
		return sized.Len()
	}
	return 0
}

// resolveStride picks the bottleneck-series sampling stride: from the
// config, the scenario's length hint, or per-completion sampling thinned
// after the run.
func resolveStride(cfg Config, gen workload.Generator) (stride int, thinAfter bool) {
	if cfg.SampleEvery > 0 {
		return cfg.SampleEvery, false
	}
	if sized, ok := gen.(interface{ Len() int }); ok && sized.Len() > 0 {
		stride = sized.Len() / 64
		if stride < 1 {
			stride = 1
		}
		return stride, false
	}
	return 1, true
}
