package distcount

import (
	"fmt"

	"distcount/internal/adversary"
	"distcount/internal/bound"
	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/engine"
	"distcount/internal/experiments"
	"distcount/internal/ext/distpq"
	"distcount/internal/ext/flipbit"
	"distcount/internal/loadstat"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/verify"
	"distcount/internal/workload"
)

// Re-exported core types. Aliases let callers outside this module use the
// internal implementations through a stable public surface.
type (
	// Counter is a distributed counter bound to a simulated network: Inc(p)
	// performs one test-and-increment initiated by processor p and returns
	// the pre-increment value.
	Counter = counter.Counter
	// Cloneable is the simulated counter, whose full state (network +
	// protocol) can be deep-copied; required by the lower-bound adversary.
	Cloneable = *counter.Sim
	// TreeCounter is the paper's retiring communication-tree counter (the
	// O(k) upper bound): a Cloneable (its Sim) plus the lemma readouts.
	TreeCounter = core.Tree
	// ProcID identifies a processor (1..n).
	ProcID = sim.ProcID
	// Network is the simulated asynchronous message-passing system.
	Network = sim.Network
	// RunResult records the values of an executed operation sequence and
	// how many processors each two consecutive operations share.
	RunResult = counter.RunResult
	// LoadSummary summarizes per-processor message loads: bottleneck,
	// mean, median, Gini coefficient.
	LoadSummary = loadstat.Summary
	// AdversaryResult is the outcome of the lower-bound adversary,
	// including the proof trace in full mode.
	AdversaryResult = adversary.Result
	// Experiment is one reproducible paper artifact (figure or theorem
	// measurement).
	Experiment = experiments.Experiment
	// FlipBit is a distributed test-and-flip bit served by the paper's
	// communication tree — the first of the two data structures the paper
	// names when extending its lower bound beyond counters.
	FlipBit = flipbit.Bit
	// PriorityQueue is a distributed priority queue served by the paper's
	// communication tree — the second extension example.
	PriorityQueue = distpq.Queue
	// AsyncCounter is a Counter that supports concurrent in-flight
	// operations, as driven by the workload engine: Start schedules one,
	// OpValue reads its value back by operation id, and Guarantee names the
	// contract the engine's verification checks.
	AsyncCounter = counter.Async
	// Scenario is a deterministic, seeded stream of operation requests
	// with simulated arrival times.
	Scenario = workload.Generator
	// ScenarioConfig parameterizes the built-in scenarios (size, length,
	// seed, arrival rate, skew knobs).
	ScenarioConfig = workload.Config
	// WorkloadConfig tunes the load driver: admission mode (closed- or
	// open-loop), in-flight window, admission-queue bound, warmup, series
	// sampling, and the saturation-knee detection knobs.
	WorkloadConfig = engine.Config
	// WorkloadMode selects the driver's admission discipline: ClosedLoop
	// throttles admission to completions, OpenLoop admits every request at
	// its scenario arrival time so overload becomes measurable.
	WorkloadMode = engine.Mode
	// WorkloadReport is the result of one engine run: throughput, latency
	// percentiles split into queueing delay and service latency,
	// measured-window load summary, the bottleneck-load time series, and —
	// in open-loop mode — per-rate-bucket statistics with the detected
	// saturation knee. internal/engine/report renders it as JSON, CSV or
	// text.
	WorkloadReport = engine.Result
	// SaturationKnee is the detected saturation point of an open-loop run:
	// the offered rate at which p99 latency diverges or the admission
	// queue overflows. A closed-loop run never reports one — its admission
	// is throttled to completions, so it cannot drive the system past its
	// knee.
	SaturationKnee = engine.Knee
	// RateBucket is one arrival-ordered slice of an open-loop run, the
	// unit of the saturation analysis.
	RateBucket = engine.RateBucket
	// ConsistencyLevel is the strongest value-correctness guarantee an
	// algorithm claims under concurrent operation (sequential-only,
	// quiescent, linearizable, or approximate); the engine's verification
	// checks the claimed level.
	ConsistencyLevel = counter.Consistency
	// Guarantee is an algorithm's full consistency contract: the level,
	// plus — for ε-approximate algorithms — the claimed relative error
	// bound. Exact algorithms carry Epsilon 0 and render as the bare level
	// name; approximate ones render as "approximate(ε)". Read it from any
	// built counter via AsyncCounter.Guarantee().
	Guarantee = counter.Guarantee
	// VerificationReport quantifies the value correctness of one
	// concurrent run: duplicates, gaps, real-time order violations, and
	// the total violation count against the claimed consistency level.
	// Attached to WorkloadReport when WorkloadConfig.Verify is set.
	VerificationReport = verify.Report
	// CountingService is the multi-key service layer: keys hash onto home
	// shards, each shard an independent counter instance, with optional
	// hotspot migration to a dedicated hot shard. Built by
	// NewCountingService, driven by RunKeyedWorkload.
	CountingService = countersvc.Service
	// ServiceConfig parameterizes a CountingService: key count, per-shard
	// processor count, shard count, per-shard algorithms, and the optional
	// migration policy.
	ServiceConfig = countersvc.Config
	// HotspotMigration configures a service's hotspot detector and the
	// dedicated hot shard a hot key drains to and cuts over onto.
	HotspotMigration = countersvc.Migration
	// MigrationEvent records one completed hot-key cutover, reported on
	// WorkloadReport.Migrations.
	MigrationEvent = countersvc.MigrationEvent
	// KeyStat is one key's aggregate outcome in a keyed run: final shard,
	// completed operations, mean latency.
	KeyStat = engine.KeyStat
	// KeyedVerificationReport is the service-layer verification: every
	// shard history checked at its own claimed consistency level, every
	// (key, epoch) segment partitioned so a migrated key verifies cleanly
	// on both sides of its cutover.
	KeyedVerificationReport = verify.KeyedReport
)

// Admission disciplines for WorkloadConfig.Mode.
const (
	// ClosedLoop keeps at most WorkloadConfig.InFlight operations in
	// flight, admitting the next request as one completes (the default).
	ClosedLoop = engine.Closed
	// OpenLoop admits requests at their scenario arrival time regardless
	// of the number in flight, queueing (bounded by QueueCap) only while a
	// request's initiator is busy.
	OpenLoop = engine.Open
)

// NewTreeCounter returns the paper's counter for the communication tree of
// arity k >= 2, spanning exactly n = k·k^k processors with the default
// retirement threshold 4k.
func NewTreeCounter(k int) *TreeCounter { return core.New(k) }

// NewTreeCounterForSize returns the paper's counter for at least n
// processors, rounding n up to the next admissible size k·k^k.
func NewTreeCounterForSize(n int) *TreeCounter { return core.NewForSize(n) }

// NewFlipBit returns a distributed test-and-flip bit over the communication
// tree of arity k (n = k·k^k processors). Like the counter, every
// processor's message load stays O(k).
func NewFlipBit(k int) *FlipBit { return flipbit.New(k) }

// NewPriorityQueue returns a distributed priority queue over the
// communication tree of arity k. Insert and delete-min both depend on the
// preceding operation, so the paper's lower bound covers them; the tree
// delivers the matching O(k).
func NewPriorityQueue(k int) *PriorityQueue { return distpq.New(k) }

// Algorithms lists the registered counter algorithms usable with New:
// central, tokenring, ctree, combining, cnet, cnet-periodic, difftree,
// quorum-{singleton,majority,grid,tree,wall}, and the ε-approximate
// gxu-threshold and css-sample.
func Algorithms() []string { return registry.Names() }

// ExactAlgorithms lists the registered algorithms whose claimed guarantee
// is exact (everything but the ε-approximate family), sorted.
func ExactAlgorithms() []string { return registry.ExactNames() }

// ApproximateAlgorithms lists the registered ε-approximate algorithms,
// sorted. Their values are only promised to stay within a relative error
// bound of the true count; DefaultEpsilon reports each algorithm's default
// bound and WithEpsilon overrides it.
func ApproximateAlgorithms() []string { return registry.ApproximateNames() }

// DefaultEpsilon returns the relative error bound the named approximate
// algorithm claims when built without WithEpsilon, and false for exact or
// unknown algorithms.
func DefaultEpsilon(algorithm string) (float64, bool) { return registry.DefaultEpsilon(algorithm) }

// Option configures a counter built by New.
type Option func(*buildSpec)

type buildSpec struct {
	concurrent bool
	window     int64
	epsilon    float64
	backend    string
	service    int64
}

// InConcurrentRegime configures the counter for concurrent operation:
// increments may be injected while earlier ones are still in flight, as
// RunWorkload does. Every initiator owns its operation state, so any
// algorithm works; the combining and diffracting trees are built with
// their merge windows open.
func InConcurrentRegime() Option {
	return func(s *buildSpec) { s.concurrent = true }
}

// WithServiceTime makes every processor take service ticks to process each
// incoming message, on either backend (simulated ticks on "sim"; on "rt" the
// worker holding the processor is kept busy for that many ticks of wall
// time). Under this model a processor's message load m_p is also time
// spent, so the paper's bottleneck caps throughput — combine with
// InConcurrentRegime and an open-loop ramp (scenario "ramprate",
// WorkloadConfig.Mode = OpenLoop) to measure the resulting saturation knee.
func WithServiceTime(service int64) Option {
	return func(s *buildSpec) { s.service = service }
}

// WithEpsilon overrides the relative error bound claimed — and exploited —
// by an ε-approximate algorithm (see ApproximateAlgorithms). Values
// outside (0, 1] and exact algorithms ignore the override.
func WithEpsilon(eps float64) Option {
	return func(s *buildSpec) { s.epsilon = eps }
}

// WithWindow sets the merge window, in simulated ticks, of the
// window-sensitive algorithms (combining, difftree) in the concurrent
// regime. Zero keeps the regime default.
func WithWindow(ticks int64) Option {
	return func(s *buildSpec) { s.window = ticks }
}

// WithBackend selects the execution backend: "sim" (the default) runs on
// the deterministic simulated network, "rt" on real cores — processor
// mailboxes drained by a worker pool — in wall-clock time.
func WithBackend(name string) Option {
	return func(s *buildSpec) { s.backend = name }
}

// New builds the named counter over (at least) n processors. It is the one
// way to build an algorithm: every name is a protocol description handed to
// the backend WithBackend selects. With no options it is configured for the
// sequential regime of the paper's model (each operation running to
// quiescence before the next, windows closed); pass InConcurrentRegime for
// workload-driven concurrent operation. The returned counter always
// supports both Inc and Start, reads each started operation's value back
// with OpValue(id), and exposes its consistency contract via Guarantee().
// The paper's lemma instrumentation is off here: NewTreeCounter builds the
// tree with it on.
func New(algorithm string, n int, opts ...Option) (AsyncCounter, error) {
	var s buildSpec
	for _, o := range opts {
		o(&s)
	}
	var cfg registry.Config
	if s.concurrent {
		cfg = registry.Concurrent()
	} else {
		cfg = registry.Sequential()
	}
	if s.window != 0 {
		cfg.Window = s.window
	}
	cfg.Epsilon = s.epsilon
	cfg.Backend = s.backend
	if s.service < 0 {
		return nil, fmt.Errorf("distcount: negative service time %d", s.service)
	}
	if service := s.service; service > 0 {
		cfg.Service = func(sim.ProcID) int64 { return service }
	}
	return registry.NewWith(algorithm, n, cfg)
}

// Scenarios lists the built-in workload scenario names usable with
// NewScenario.
func Scenarios() []string { return workload.Names() }

// NewScenario builds the named workload scenario (uniform, zipf, hotspot,
// bursty, ramp, ramprate, mix) from the config. The stream is a pure
// function of the config, so runs are reproducible.
func NewScenario(name string, cfg ScenarioConfig) (Scenario, error) {
	return workload.New(name, cfg)
}

// RunWorkload drives the counter with the scenario through the concurrent
// engine in the configured admission mode (closed loop by default) and
// reports throughput, latency percentiles split into queueing delay and
// service latency, the measured-window load summary, and the
// bottleneck-load time series — in simulated time, or for a counter built
// WithBackend("rt") in wall-clock nanoseconds and operations per second
// (WorkloadReport.Wall). Open-loop runs additionally report per-rate-bucket
// statistics and the saturation knee.
// With WorkloadConfig.Verify set, every completed operation's value is
// checked against the algorithm's claimed consistency level and the
// VerificationReport is attached to the result.
func RunWorkload(c AsyncCounter, sc Scenario, cfg WorkloadConfig) (*WorkloadReport, error) {
	return engine.Run(c, sc, cfg)
}

// KeyDists returns the supported key-popularity distribution names for
// ScenarioConfig.KeyDist (uniform, zipf).
func KeyDists() []string { return workload.KeyDists() }

// NewCountingService builds the sharded multi-key service: every home
// shard (plus the hot shard when migration is configured) is one counter
// instance built through the registry, and keys hash onto home shards
// deterministically. The paper's Ω(k) bottleneck applies per counter;
// the service is the layer that decides how many counters back a keyed
// workload and which algorithm each one runs.
func NewCountingService(cfg ServiceConfig) (*CountingService, error) {
	return countersvc.New(cfg)
}

// RunKeyedWorkload drives the service with a keyed scenario
// (ScenarioConfig.Keys > 1) through the concurrent engine — the
// service-layer analog of RunWorkload. The report carries the aggregate
// metrics plus per-key stats, migration events, and — with Verify set —
// the keyed verification that checks every shard history at its own
// claimed consistency level, partitioned by (key, epoch) across any
// mid-run cutover.
func RunKeyedWorkload(svc *CountingService, sc Scenario, cfg WorkloadConfig) (*WorkloadReport, error) {
	return engine.RunKeyed(svc, sc, cfg)
}

// RunSequence executes the operations in order, each running to quiescence
// before the next starts (the paper's sequential model), on either backend.
// It holds the counter's OnDeliver hook for the run.
func RunSequence(c Counter, order []ProcID) (*RunResult, error) {
	return counter.RunSequence(c, order)
}

// SequentialOrder returns the canonical workload order 1..n (each processor
// increments exactly once).
func SequentialOrder(n int) []ProcID { return counter.SequentialOrder(n) }

// RandomOrder returns a seeded random permutation of 1..n.
func RandomOrder(n int, seed uint64) []ProcID { return counter.RandomOrder(n, seed) }

// Loads summarizes the per-processor message loads m_p the counter has
// accumulated so far, on either backend.
func Loads(c Counter) LoadSummary {
	return loadstat.Summarize(c.Loads(nil, nil))
}

// VerifyCounter runs the given workload on a fresh counter and checks
// test-and-increment semantics plus the Hot Spot Lemma.
func VerifyCounter(c Counter, order []ProcID) error {
	return verify.Counter(c, order)
}

// SolveK returns the paper's bound parameter: the largest k with
// k·k^k <= n. The Lower Bound Theorem guarantees a bottleneck processor
// with message load Ω(k) over the canonical workload.
func SolveK(n int) int { return bound.SolveK(n) }

// SizeFor returns n(k) = k·k^k, the workload size whose bound parameter is
// exactly k.
func SizeFor(k int) int { return bound.SizeFor(k) }

// KReal solves x^(x+1) = n over the reals, the smooth version of SolveK.
func KReal(n float64) float64 { return bound.KReal(n) }

// RunAdversary executes the Lower Bound Theorem's constructive workload
// against a simulated counter (a TreeCounter's is its Sim), recording its
// communication DAGs itself: at each step the not-yet-chosen processor with
// the longest communication list increments. The result carries the proof
// trace; VerifyAdversary checks it.
func RunAdversary(c Cloneable) (*AdversaryResult, error) {
	return adversary.Run(c)
}

// VerifyAdversary checks the structural facts of the lower-bound proof on a
// full-mode adversary result, including that the measured bottleneck meets
// the k(n) bound.
func VerifyAdversary(r *AdversaryResult) error {
	return adversary.VerifyProofStructure(r)
}

// Experiments returns the paper-reproduction experiments E1..E14.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment executes one experiment by id ("E1".."E14") and returns its
// rendered report. Quick mode shrinks problem sizes to test scale.
func RunExperiment(id string, quick bool) (string, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return "", errUnknownExperiment(id)
	}
	return e.Run(experiments.Config{Quick: quick})
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "distcount: unknown experiment " + string(e)
}
