package engine

import (
	"encoding/json"
	"math"
	"testing"
	"unsafe"

	"distcount/internal/counter"
	"distcount/internal/loadstat"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

func mustAsyncService(t *testing.T, algo string, n int, service int64) counter.Async {
	t.Helper()
	c, err := registry.NewWith(algo, n, registry.Concurrent(sim.WithServiceTime(service)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOpenLoopBasics: an open-loop run completes every operation and
// produces a coherent report with the open-loop extras populated.
func TestOpenLoopBasics(t *testing.T) {
	c := mustAsync(t, "central", 16)
	gen := mustScenario(t, "uniform", workload.Config{N: 16, Ops: 300, Seed: 1})
	res, err := Run(c, gen, Config{Mode: Open})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" {
		t.Fatalf("mode = %q, want open", res.Mode)
	}
	if res.Ops != 300 || res.Measured != 300 || res.Dropped != 0 {
		t.Fatalf("ops = %d measured = %d dropped = %d, want 300/300/0", res.Ops, res.Measured, res.Dropped)
	}
	if res.InFlight != 0 {
		t.Fatalf("open loop reports a window of %d, want 0 (no window)", res.InFlight)
	}
	if len(res.Buckets) == 0 {
		t.Fatal("open loop produced no rate buckets")
	}
	arrivals := 0
	for _, b := range res.Buckets {
		arrivals += b.Arrivals
		if b.OfferedRate <= 0 {
			t.Fatalf("bucket %d has offered rate %v", b.Index, b.OfferedRate)
		}
	}
	if arrivals != 300 {
		t.Fatalf("buckets cover %d arrivals, want 300", arrivals)
	}
	if res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 {
		t.Fatalf("latency digest incoherent: %+v", res.Latency)
	}
}

// TestLatencySplitsAdditive: in both modes, end-to-end latency decomposes
// exactly into queueing delay plus service latency (means are linear, so
// the identity is exact up to float addition).
func TestLatencySplitsAdditive(t *testing.T) {
	for _, mode := range []Mode{Closed, Open} {
		c := mustAsync(t, "central", 8)
		gen := mustScenario(t, "bursty", workload.Config{N: 8, Ops: 200, Seed: 3, MeanGap: 1})
		res, err := Run(c, gen, Config{Mode: mode, InFlight: 2})
		if err != nil {
			t.Fatal(err)
		}
		sum := res.QueueDelay.Mean + res.ServiceLatency.Mean
		if math.Abs(sum-res.Latency.Mean) > 1e-9 {
			t.Fatalf("%v: queue %.6f + service %.6f = %.6f != latency mean %.6f",
				mode, res.QueueDelay.Mean, res.ServiceLatency.Mean, sum, res.Latency.Mean)
		}
		if res.QueueDelay.Max > res.Latency.Max {
			t.Fatalf("%v: queue delay max %d exceeds total max %d", mode, res.QueueDelay.Max, res.Latency.Max)
		}
	}
}

// TestOpenVsClosedQueueingAccounting: on the same seed and stream, the
// closed loop hides overload in admission throttling (service latency
// stays flat), while the open loop pushes it into the network, where the
// per-op split makes the congestion visible as service latency.
func TestOpenVsClosedQueueingAccounting(t *testing.T) {
	const n, ops, service = 16, 600, 1
	gen := func() workload.Generator {
		return mustScenario(t, "ramprate",
			workload.Config{N: n, Ops: ops, Seed: 11, RateFrom: 0.1, RateTo: 2})
	}
	closed, err := Run(mustAsyncService(t, "central", n, service), gen(),
		Config{Mode: Closed, InFlight: 4, Warmup: ops / 10})
	if err != nil {
		t.Fatal(err)
	}
	open, err := Run(mustAsyncService(t, "central", n, service), gen(),
		Config{Mode: Open, Warmup: ops / 10})
	if err != nil {
		t.Fatal(err)
	}
	// Identical stream, identical per-op message cost: the loads agree.
	if closed.Messages != open.Messages {
		t.Fatalf("same stream sent %d vs %d messages", closed.Messages, open.Messages)
	}
	// The closed window caps in-network congestion: at most InFlight ops
	// compete for the holder, so service p99 stays within a few round
	// trips. The open loop drives it far past that.
	if closed.ServiceLatency.P99 >= open.ServiceLatency.P99 {
		t.Fatalf("closed service p99 %.1f not below open %.1f — open loop is not exposing congestion",
			closed.ServiceLatency.P99, open.ServiceLatency.P99)
	}
	if open.PeakInFlight <= closed.PeakInFlight {
		t.Fatalf("open peak in flight %d not above closed %d", open.PeakInFlight, closed.PeakInFlight)
	}
	// Both split queue from service; in the closed loop the queueing
	// component is the window throttle, which must dominate its service
	// share under a saturating ramp.
	if closed.QueueDelay.P99 <= closed.ServiceLatency.P99 {
		t.Fatalf("closed loop under overload: queue p99 %.1f not above service p99 %.1f",
			closed.QueueDelay.P99, closed.ServiceLatency.P99)
	}
}

// TestOpenLoopKneeForCentral is the acceptance scenario: an open-loop
// rate ramp against the central counter with a finite service rate finds
// the saturation knee near the holder's capacity (1 op per service tick),
// while the closed-loop run of the very same stream reports none — its
// admission is throttled to completions, so it cannot drive the system
// past the knee.
func TestOpenLoopKneeForCentral(t *testing.T) {
	const n, ops = 16, 800
	gen := func() workload.Generator {
		return mustScenario(t, "ramprate",
			workload.Config{N: n, Ops: ops, Seed: 1, RateFrom: 0.1, RateTo: 2})
	}
	open, err := Run(mustAsyncService(t, "central", n, 1), gen(), Config{Mode: Open})
	if err != nil {
		t.Fatal(err)
	}
	if open.Knee == nil {
		t.Fatal("open-loop ramp found no saturation knee for the central counter")
	}
	// Holder capacity is n/(n-1) ≈ 1.07 ops/tick (its own ops are free);
	// the detected knee must be in that neighbourhood, and certainly
	// inside the swept range.
	if open.Knee.OfferedRate < 0.5 || open.Knee.OfferedRate > 2 {
		t.Fatalf("knee at %.3f ops/tick, want within the swept (0.5, 2) band: %+v", open.Knee.OfferedRate, open.Knee)
	}
	if open.Knee.Reason != "latency" && open.Knee.Reason != "queue" {
		t.Fatalf("knee reason %q", open.Knee.Reason)
	}

	closed, err := Run(mustAsyncService(t, "central", n, 1), gen(), Config{Mode: Closed})
	if err != nil {
		t.Fatal(err)
	}
	if closed.Knee != nil || closed.Buckets != nil {
		t.Fatalf("closed loop produced a knee report: %+v", closed.Knee)
	}
}

// TestOpenLoopBoundedQueueDrops: a blast of same-initiator arrivals
// overflows a tiny admission queue; the overflow is dropped, counted, and
// the run still accounts every request.
func TestOpenLoopBoundedQueueDrops(t *testing.T) {
	c := mustAsync(t, "central", 8)
	order := make([]sim.ProcID, 64)
	for i := range order {
		order[i] = 3 // every request from the same initiator: maximal queueing
	}
	res, err := Run(c, workload.Replay("solo-blast", order, 0), Config{Mode: Open, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("no drops despite a 4-slot queue and 64 simultaneous same-initiator arrivals")
	}
	if res.Ops+res.Dropped != 64 {
		t.Fatalf("ops %d + dropped %d != 64 requests", res.Ops, res.Dropped)
	}
	if res.PeakQueueDepth > 4 {
		t.Fatalf("peak queue depth %d exceeds cap 4", res.PeakQueueDepth)
	}
	if res.PeakInFlight != 1 {
		t.Fatalf("peak in flight %d, want 1 (single initiator)", res.PeakInFlight)
	}
	if res.Arrivals != 64 {
		t.Fatalf("arrivals %d, want 64 (completions plus drops)", res.Arrivals)
	}
	if want := float64(res.Dropped) / 64; math.Abs(res.DropRate-want) > 1e-12 {
		t.Fatalf("drop rate %v, want %v", res.DropRate, want)
	}
}

// TestFirstClassCostMetrics: messages/op and drop rate are derived report
// fields in both modes — messages/op from the measure-window send counters
// over measured completions, drop rate zero whenever nothing is shed.
func TestFirstClassCostMetrics(t *testing.T) {
	for _, mode := range []Mode{Closed, Open} {
		c := mustAsync(t, "ctree", 9)
		gen := mustScenario(t, "uniform", workload.Config{N: 9, Ops: 200, Seed: 2})
		res, err := Run(c, gen, Config{Mode: mode, Warmup: 20})
		if err != nil {
			t.Fatal(err)
		}
		if res.Arrivals != res.Ops {
			t.Fatalf("%v: arrivals %d != ops %d with nothing dropped", mode, res.Arrivals, res.Ops)
		}
		if res.DropRate != 0 {
			t.Fatalf("%v: drop rate %v without drops", mode, res.DropRate)
		}
		want := float64(res.Loads.TotalMessages) / float64(res.Measured)
		if res.MessagesPerOp != want {
			t.Fatalf("%v: messages/op %v, want %v (measure-window messages / measured)", mode, res.MessagesPerOp, want)
		}
		// The paper's tree costs a fixed number of messages per operation;
		// the metric must land in a plausible per-op band, not at a
		// whole-run total.
		if res.MessagesPerOp < 1 || res.MessagesPerOp > 64 {
			t.Fatalf("%v: messages/op %v implausible for ctree", mode, res.MessagesPerOp)
		}
	}
}

// TestOpenLoopMatchesClosedWhenUnloaded: with arrivals far sparser than
// the service time, neither mode queues anything and the two admission
// disciplines degenerate to the same execution — identical latencies,
// makespan, and messages.
func TestOpenLoopMatchesClosedWhenUnloaded(t *testing.T) {
	order := make([]sim.ProcID, 30)
	for i := range order {
		order[i] = sim.ProcID(i%8 + 1)
	}
	run := func(mode Mode) *Result {
		res, err := Run(mustAsync(t, "ctree", 8), workload.Replay("sparse", order, 50), Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(Closed), run(Open)
	if a.Latency != b.Latency || a.SimTime != b.SimTime || a.Messages != b.Messages {
		t.Fatalf("unloaded runs diverge:\nclosed: %+v t=%d msgs=%d\nopen:   %+v t=%d msgs=%d",
			a.Latency, a.SimTime, a.Messages, b.Latency, b.SimTime, b.Messages)
	}
	if b.QueueDelay.Max != 0 {
		t.Fatalf("unloaded open loop reports queueing: %+v", b.QueueDelay)
	}
}

// TestOpenLoopDeterministic: identical configs yield byte-identical
// reports, buckets and knee included.
func TestOpenLoopDeterministic(t *testing.T) {
	run := func() []byte {
		c := mustAsyncService(t, "central", 12, 1)
		gen := mustScenario(t, "ramprate", workload.Config{N: 12, Ops: 400, Seed: 42})
		res, err := Run(c, gen, Config{Mode: Open, Warmup: 40})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); string(a) != string(b) {
		t.Fatalf("nondeterministic open-loop report:\n%s\n%s", a, b)
	}
}

// TestOpenLoopAllAsyncAlgos: every async algorithm survives the open loop
// under a moderately loaded uniform stream.
func TestOpenLoopAllAsyncAlgos(t *testing.T) {
	for _, algo := range registry.Names() {
		t.Run(algo, func(t *testing.T) {
			c := mustAsync(t, algo, 16)
			gen := mustScenario(t, "uniform", workload.Config{N: c.N(), Ops: 120, Seed: 3, MeanGap: 2})
			res, err := Run(c, gen, Config{Mode: Open, Warmup: 12})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 120 {
				t.Fatalf("ops = %d, want 120", res.Ops)
			}
			if res.Measured != 108 {
				t.Fatalf("measured = %d, want 108", res.Measured)
			}
		})
	}
}

// TestSeriesTrackerMatchesSummarize: the series' final bottleneck sample —
// produced by the service's load scan — agrees with a full SummarizeLoads of
// the network's final load vector.
func TestSeriesTrackerMatchesSummarize(t *testing.T) {
	c := mustAsync(t, "central", 12)
	gen := mustScenario(t, "hotspot", workload.Config{N: 12, Ops: 240, Seed: 6})
	res, err := Run(c, gen, Config{InFlight: 4, SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := loadstat.Summarize(c.Loads(nil, nil))
	last := res.Series[len(res.Series)-1]
	if last.Completed != 240 {
		t.Fatalf("series does not end at the final completion: %+v", last)
	}
	if last.Bottleneck != want.Bottleneck || last.BottleneckLoad != want.MaxLoad {
		t.Fatalf("final sample (p%d, %d) != SummarizeLoads (p%d, %d)",
			last.Bottleneck, last.BottleneckLoad, want.Bottleneck, want.MaxLoad)
	}
	if math.Abs(last.MeanLoad-want.Mean) > 1e-9 {
		t.Fatalf("final sample mean %v != summary mean %v", last.MeanLoad, want.Mean)
	}
}

// TestOpRecSize pins the open loop's per-arrival record: the one record the
// engine keeps per request, so every byte here is a byte per arrival.
func TestOpRecSize(t *testing.T) {
	if size := unsafe.Sizeof(opRec{}); size != 32 {
		t.Fatalf("sizeof(opRec) = %d bytes, want 32", size)
	}
}

// TestBucketize: synthetic records split into even buckets with correct
// per-bucket accounting.
func TestBucketize(t *testing.T) {
	recs := make([]opRec, 40)
	for i := range recs {
		recs[i] = opRec{
			arrival:    int64(i * 10),
			done:       int64(i*10 + 5),
			queueDepth: int32(i % 3),
			backlog:    int32(i % 5),
		}
	}
	recs[39].done = -1 // one still outstanding
	recs[38].dropped = true
	recs[38].done = -1
	bs := bucketize(recs, 4)
	if len(bs) != 4 {
		t.Fatalf("got %d buckets, want 4", len(bs))
	}
	total, completed, dropped := 0, 0, 0
	for _, b := range bs {
		total += b.Arrivals
		completed += b.Completed
		dropped += b.Dropped
	}
	if total != 40 || completed != 38 || dropped != 1 {
		t.Fatalf("arrivals %d completed %d dropped %d, want 40/38/1", total, completed, dropped)
	}
	if bs[0].P50 != 5 || bs[0].P99 != 5 {
		t.Fatalf("uniform 5-tick latencies give p50=%v p99=%v", bs[0].P50, bs[0].P99)
	}
	// More buckets than records degrades gracefully to one record each.
	if got := len(bucketize(recs[:3], 16)); got != 3 {
		t.Fatalf("bucketize(3 recs, 16) = %d buckets", got)
	}
	if bucketize(nil, 4) != nil {
		t.Fatal("bucketize(nil) != nil")
	}
}

// TestBucketizeSpansIncludeInterBucketGaps is the regression test for the
// offered-rate bias: a bucket's span must run to the *next* bucket's first
// arrival, so the idle gap between two arrival clusters lands in the
// earlier bucket's denominator. The old code ended every span at the
// bucket's own last arrival, which dropped inter-bucket gaps and inflated
// OfferedRate for sparse buckets — exactly the low-rate cells the scaling
// fit keys on.
func TestBucketizeSpansIncludeInterBucketGaps(t *testing.T) {
	// Two clusters of four arrivals 10 ticks apart, separated by a 70-tick
	// idle gap: 0,10,20,30 ... 100,110,120,130.
	var recs []opRec
	for _, base := range []int64{0, 100} {
		for i := int64(0); i < 4; i++ {
			at := base + 10*i
			recs = append(recs, opRec{arrival: at, done: at + 2})
		}
	}
	bs := bucketize(recs, 2)
	if len(bs) != 2 {
		t.Fatalf("got %d buckets, want 2", len(bs))
	}
	// Bucket 0 spans [0, 100): its four arrivals took 100 ticks of stream
	// time to show up, not 30 — offered rate exactly 0.04 ops/tick.
	if bs[0].StartTime != 0 || bs[0].EndTime != 100 {
		t.Fatalf("bucket 0 span [%d, %d], want [0, 100]", bs[0].StartTime, bs[0].EndTime)
	}
	if bs[0].OfferedRate != 4.0/100 {
		t.Fatalf("bucket 0 offered rate %v, want exactly 0.04 (old last-arrival span gives %v)",
			bs[0].OfferedRate, 4.0/30)
	}
	// The final bucket has no successor: span ends at its own last arrival.
	if bs[1].StartTime != 100 || bs[1].EndTime != 130 {
		t.Fatalf("bucket 1 span [%d, %d], want [100, 130]", bs[1].StartTime, bs[1].EndTime)
	}
	if bs[1].OfferedRate != 4.0/30 {
		t.Fatalf("bucket 1 offered rate %v, want exactly %v", bs[1].OfferedRate, 4.0/30)
	}
	// The spans tile the arrival axis: no gap is counted twice or dropped.
	if bs[0].EndTime != bs[1].StartTime {
		t.Fatalf("buckets do not tile: %d != %d", bs[0].EndTime, bs[1].StartTime)
	}
}

// TestDetectKnee: the scan finds latency divergence and queue overflow,
// and stays quiet on flat profiles.
func TestDetectKnee(t *testing.T) {
	flat := []RateBucket{
		{Index: 0, Completed: 20, P99: 4, OfferedRate: 0.1},
		{Index: 1, Completed: 20, P99: 5, OfferedRate: 0.2},
		{Index: 2, Completed: 20, P99: 4, OfferedRate: 0.3},
	}
	if k := detectKnee(flat); k != nil {
		t.Fatalf("flat profile produced a knee: %+v", k)
	}

	diverging := append(append([]RateBucket(nil), flat...),
		RateBucket{Index: 3, Completed: 20, P99: 40, OfferedRate: 0.4, StartTime: 900})
	k := detectKnee(diverging)
	if k == nil || k.Bucket != 3 || k.Reason != "latency" || k.OfferedRate != 0.4 || k.SimTime != 900 {
		t.Fatalf("latency knee wrong: %+v", k)
	}

	overflow := append(append([]RateBucket(nil), flat...),
		RateBucket{Index: 3, Completed: 2, Dropped: 7, P99: 6, OfferedRate: 0.5})
	k = detectKnee(overflow)
	if k == nil || k.Reason != "queue" || k.Bucket != 3 {
		t.Fatalf("queue knee wrong: %+v", k)
	}

	// No bucket ever reaches minKneeOps: no baseline, no knee.
	if k := detectKnee([]RateBucket{{Completed: 2, P99: 1}, {Completed: 3, P99: 99}}); k != nil {
		t.Fatalf("knee without baseline: %+v", k)
	}
}

// TestOpenLoopWarmupConsumingEverythingErrors mirrors the closed-loop
// guard.
func TestOpenLoopWarmupConsumingEverythingErrors(t *testing.T) {
	c := mustAsync(t, "central", 8)
	gen := mustScenario(t, "uniform", workload.Config{N: 8, Ops: 10, Seed: 1})
	if _, err := Run(c, gen, Config{Mode: Open, Warmup: 10}); err == nil {
		t.Fatal("warmup == ops accepted")
	}
}

// TestOpenLoopScenarioOutOfRangeIsAnError mirrors the closed-loop guard.
func TestOpenLoopScenarioOutOfRangeIsAnError(t *testing.T) {
	c := mustAsync(t, "central", 8)
	bad := workload.Replay("bad", []sim.ProcID{3, 99}, 1)
	if _, err := Run(c, bad, Config{Mode: Open}); err == nil {
		t.Fatal("out-of-range initiator accepted")
	}
}

// TestParseMode round-trips the CLI values.
func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"closed": Closed, "open": Open} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParseMode("half-open"); err == nil {
		t.Fatal("bad mode accepted")
	}
}
