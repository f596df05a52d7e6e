package engine

import (
	"encoding/json"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counters/combining"
	"distcount/internal/counters/difftree"
	"distcount/internal/loadstat"
	"distcount/internal/registry"
	"distcount/internal/rng"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

func mustScenario(t *testing.T, name string, cfg workload.Config) workload.Generator {
	t.Helper()
	g, err := workload.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustAsync(t *testing.T, algo string, n int) counter.Async {
	t.Helper()
	c, err := registry.NewWith(algo, n, registry.Concurrent())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunBasics: a uniform workload on the central counter completes every
// operation and produces a coherent report.
func TestRunBasics(t *testing.T) {
	c := mustAsync(t, "central", 16)
	gen := mustScenario(t, "uniform", workload.Config{N: 16, Ops: 300, Seed: 1})
	res, err := Run(c, gen, Config{InFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 300 || res.Measured != 300 {
		t.Fatalf("ops = %d measured = %d, want 300/300", res.Ops, res.Measured)
	}
	if res.Algorithm != "central" || res.Scenario != "uniform" {
		t.Fatalf("labels wrong: %s/%s", res.Algorithm, res.Scenario)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	if res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 || float64(res.Latency.Max) < res.Latency.P99 {
		t.Fatalf("latency digest incoherent: %+v", res.Latency)
	}
	if res.SimTime <= 0 {
		t.Fatalf("sim time = %d", res.SimTime)
	}
	if len(res.Series) == 0 {
		t.Fatal("empty bottleneck series")
	}
	last := res.Series[len(res.Series)-1]
	if last.Completed != 300 {
		t.Fatalf("series does not end at the last completion: %+v", last)
	}
	// Central counter: the holder is the bottleneck under any workload.
	if res.Loads.Bottleneck != 1 {
		t.Fatalf("bottleneck = p%d, want p1 (the holder)", res.Loads.Bottleneck)
	}
	if res.PeakInFlight < 2 || res.PeakInFlight > 8 {
		t.Fatalf("peak in-flight = %d, want within (1,8]", res.PeakInFlight)
	}
}

// TestRunDeterministic: identical configs yield byte-identical reports.
func TestRunDeterministic(t *testing.T) {
	for _, algo := range []string{"central", "ctree", "combining"} {
		run := func() []byte {
			c := mustAsync(t, algo, 27)
			gen := mustScenario(t, "zipf", workload.Config{N: c.N(), Ops: 200, Seed: 42})
			res, err := Run(c, gen, Config{InFlight: 6, Warmup: 20})
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
			t.Fatalf("%s: nondeterministic report:\n%s\n%s", algo, a, b)
		}
	}
}

// TestRunAllAsyncAlgosAllScenarios: the full matrix completes.
func TestRunAllAsyncAlgosAllScenarios(t *testing.T) {
	for _, algo := range registry.Names() {
		for _, scen := range workload.Names() {
			algo, scen := algo, scen
			t.Run(algo+"/"+scen, func(t *testing.T) {
				c := mustAsync(t, algo, 16)
				gen := mustScenario(t, scen, workload.Config{N: c.N(), Ops: 120, Seed: 3})
				res, err := Run(c, gen, Config{InFlight: 4, Warmup: 12})
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
}

// TestWarmupExcluded: the measure window opens at the warmup boundary and
// measured loads exclude warmup traffic.
func TestWarmupExcluded(t *testing.T) {
	c := mustAsync(t, "central", 8)
	gen := mustScenario(t, "uniform", workload.Config{N: 8, Ops: 100, Seed: 5})
	res, err := Run(c, gen, Config{InFlight: 4, Warmup: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured != 50 {
		t.Fatalf("measured = %d, want 50", res.Measured)
	}
	if res.MeasureStart <= 0 {
		t.Fatalf("measure start = %d, want > 0 with warmup", res.MeasureStart)
	}
	// Warmup excluded: the measured window's message total is below the
	// whole run's.
	if res.Loads.TotalMessages >= res.Messages {
		t.Fatalf("measured messages %d not below total %d", res.Loads.TotalMessages, res.Messages)
	}

	noWarm, err := Run(mustAsync(t, "central", 8),
		mustScenario(t, "uniform", workload.Config{N: 8, Ops: 100, Seed: 5}), Config{InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if noWarm.MeasureStart != 0 {
		t.Fatalf("measure start = %d without warmup, want 0", noWarm.MeasureStart)
	}
	if noWarm.Loads.TotalMessages != noWarm.Messages {
		t.Fatalf("without warmup measured messages %d != total %d",
			noWarm.Loads.TotalMessages, noWarm.Messages)
	}
}

// TestWarmupConsumingEverythingErrors.
func TestWarmupConsumingEverythingErrors(t *testing.T) {
	c := mustAsync(t, "central", 8)
	gen := mustScenario(t, "uniform", workload.Config{N: 8, Ops: 10, Seed: 1})
	if _, err := Run(c, gen, Config{Warmup: 10}); err == nil {
		t.Fatal("warmup == ops accepted")
	}
}

// TestWindowOne serializes: with InFlight 1 the engine reproduces the
// sequential regime and peak concurrency stays 1.
func TestWindowOne(t *testing.T) {
	c := mustAsync(t, "ctree", 8)
	gen := mustScenario(t, "uniform", workload.Config{N: c.N(), Ops: 60, Seed: 2})
	res, err := Run(c, gen, Config{InFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakInFlight != 1 {
		t.Fatalf("peak in-flight = %d, want 1", res.PeakInFlight)
	}
}

// TestPipeliningBeatsSequential: with a saturating arrival stream, a wide
// window finishes the same work in less simulated time than window 1 on
// the tree counter (the pipelining claim of the concurrent example, now
// measured by the engine).
func TestPipeliningBeatsSequential(t *testing.T) {
	makespan := func(window int) int64 {
		c := mustAsync(t, "ctree", 24)
		gen := mustScenario(t, "uniform",
			workload.Config{N: c.N(), Ops: 150, Seed: 4, MeanGap: 1})
		res, err := Run(c, gen, Config{InFlight: window})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	seq, pipe := makespan(1), makespan(16)
	if pipe >= seq {
		t.Fatalf("window 16 makespan %d not below window 1 makespan %d", pipe, seq)
	}
}

// TestBottleneckSeriesMonotone: cumulative m_b never decreases, and the
// series respects the sampling stride.
func TestBottleneckSeriesMonotone(t *testing.T) {
	c := mustAsync(t, "central", 12)
	gen := mustScenario(t, "hotspot", workload.Config{N: 12, Ops: 200, Seed: 6})
	res, err := Run(c, gen, Config{InFlight: 4, SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 20 {
		t.Fatalf("series has %d points, want 20", len(res.Series))
	}
	prev := int64(-1)
	for _, s := range res.Series {
		if s.BottleneckLoad < prev {
			t.Fatalf("bottleneck load decreased: %+v", res.Series)
		}
		prev = s.BottleneckLoad
	}
}

// TestPerInitiatorExclusivity: a replay stream hammering one processor
// keeps at most one of its ops in flight, so peak concurrency stays 1 even
// with a wide window.
func TestPerInitiatorExclusivity(t *testing.T) {
	c := mustAsync(t, "central", 8)
	order := make([]sim.ProcID, 40)
	for i := range order {
		order[i] = 3
	}
	res, err := Run(c, workload.Replay("solo", order, 0), Config{InFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakInFlight != 1 {
		t.Fatalf("peak in-flight = %d, want 1 (single initiator)", res.PeakInFlight)
	}
	if res.Ops != 40 {
		t.Fatalf("ops = %d, want 40", res.Ops)
	}
}

// TestLatencyIncludesQueueing: with a burst of simultaneous arrivals and a
// narrow window, later ops wait — p99 must exceed p50.
func TestLatencyIncludesQueueing(t *testing.T) {
	c := mustAsync(t, "central", 16)
	order := make([]sim.ProcID, 16)
	for i := range order {
		order[i] = sim.ProcID(i + 1)
	}
	res, err := Run(c, workload.Replay("blast", order, 0), Config{InFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.P99 <= res.Latency.P50 {
		t.Fatalf("queueing not visible: p50 %v p99 %v", res.Latency.P50, res.Latency.P99)
	}
}

// TestCombiningActuallyCombines: under a blast of simultaneous arrivals
// the async combining tree merges requests (the mechanism it was invented
// for), and merged operations' latencies cover their real round trip —
// they are not marked complete at the merge point.
func TestCombiningActuallyCombines(t *testing.T) {
	// The registry's concurrent-regime machine, kept for the Combined
	// readout.
	m, err := registry.NewMachine("combining", 16, registry.Concurrent())
	if err != nil {
		t.Fatal(err)
	}
	c := counter.OnSim(m)
	order := make([]sim.ProcID, 64)
	for i := range order {
		order[i] = sim.ProcID(i%16 + 1)
	}
	res, err := Run(c, workload.Replay("blast", order, 0), Config{InFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	if combining.Combined(m) == 0 {
		t.Fatal("no requests combined despite simultaneous arrivals and a window")
	}
	// A merged op still has to wait for the batch round trip: its latency
	// can never be the bare one-hop it would show if completion fired at
	// the merge. The minimum real latency is request + descent >= 2, plus
	// window/climb time for most.
	if res.Measured != len(order) {
		t.Fatalf("measured %d of %d operations", res.Measured, len(order))
	}
	if min := res.Latency.Min; min < 2 {
		t.Fatalf("some op completed with latency %d ticks — merged ops are being cut short", min)
	}
}

// TestDifftreeActuallyDiffracts: the async diffracting tree pairs tokens
// in its prisms under concurrent load.
func TestDifftreeActuallyDiffracts(t *testing.T) {
	m, err := registry.NewMachine("difftree", 16, registry.Concurrent())
	if err != nil {
		t.Fatal(err)
	}
	c := counter.OnSim(m)
	order := make([]sim.ProcID, 64)
	for i := range order {
		order[i] = sim.ProcID(i%16 + 1)
	}
	res, err := Run(c, workload.Replay("blast", order, 0), Config{InFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	if difftree.Diffracted(m) == 0 {
		t.Fatal("no tokens diffracted despite simultaneous arrivals and a window")
	}
	if res.Ops != 64 {
		t.Fatalf("ops = %d, want 64", res.Ops)
	}
}

// TestScenarioOutOfRangeIsAnError: a stream targeting a processor outside
// the network returns an error instead of panicking.
func TestScenarioOutOfRangeIsAnError(t *testing.T) {
	c := mustAsync(t, "central", 8)
	bad := workload.Replay("bad", []sim.ProcID{3, 99}, 1)
	if _, err := Run(c, bad, Config{}); err == nil {
		t.Fatal("out-of-range initiator accepted")
	}
}

// TestCounterReuseRejected: the report's time axis and load baselines
// assume a fresh counter; a second run on the same one must error rather
// than fold the first run's traffic into its metrics.
func TestCounterReuseRejected(t *testing.T) {
	c := mustAsync(t, "central", 8)
	gen := mustScenario(t, "uniform", workload.Config{N: 8, Ops: 50, Seed: 1})
	if _, err := Run(c, gen, Config{}); err != nil {
		t.Fatal(err)
	}
	again := mustScenario(t, "uniform", workload.Config{N: 8, Ops: 50, Seed: 1})
	if _, err := Run(c, again, Config{}); err == nil {
		t.Fatal("reused counter accepted")
	}
}

// TestZeroDurationOpsCountAsInFlight: ops completing within their start
// event (tokenring requests by the current holder) still register.
func TestZeroDurationOpsCountAsInFlight(t *testing.T) {
	c := mustAsync(t, "tokenring", 1)
	res, err := Run(c, workload.Replay("solo", []sim.ProcID{1, 1, 1}, 5), Config{InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakInFlight != 1 {
		t.Fatalf("peak in-flight = %d, want 1", res.PeakInFlight)
	}
}

func TestPeakConcurrency(t *testing.T) {
	for _, tc := range []struct {
		starts, dones []int64
		want          int
	}{
		{nil, nil, 0},
		{[]int64{0}, []int64{5}, 1},
		// Two overlapping, one disjoint.
		{[]int64{0, 2, 10}, []int64{5, 6, 12}, 2},
		// Back-to-back at the same tick is not concurrent.
		{[]int64{0, 5}, []int64{5, 9}, 1},
		// Three nested.
		{[]int64{0, 1, 2}, []int64{10, 9, 8}, 3},
		// Zero-duration ops occupy their start tick.
		{[]int64{5}, []int64{5}, 1},
		{[]int64{5, 5}, []int64{5, 5}, 2},
	} {
		if got := sweepAll(tc.starts, tc.dones); got != tc.want {
			t.Fatalf("sweep of (%v, %v) = %d, want %d", tc.starts, tc.dones, got, tc.want)
		}
		if got := peakConcurrency(tc.starts, tc.dones); got != tc.want {
			t.Fatalf("oracle peakConcurrency(%v, %v) = %d, want %d", tc.starts, tc.dones, got, tc.want)
		}
	}
}

// TestPeakInFlightMeasuresSimultaneity: with arrivals far sparser than the
// service time, the window never actually fills — the report must say so.
func TestPeakInFlightMeasuresSimultaneity(t *testing.T) {
	c := mustAsync(t, "central", 8)
	// One arrival every 100 ticks against a ~2-tick round trip.
	order := make([]sim.ProcID, 20)
	for i := range order {
		order[i] = sim.ProcID(i%8 + 1)
	}
	res, err := Run(c, workload.Replay("sparse", order, 100), Config{InFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakInFlight != 1 {
		t.Fatalf("peak in-flight = %d, want 1 (arrivals never overlap)", res.PeakInFlight)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []int64{10, 20, 30, 40}
	if got := percentile(sorted, 0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile(sorted, 1); got != 40 {
		t.Fatalf("p100 = %v", got)
	}
	if got := percentile(sorted, 0.5); got != 25 {
		t.Fatalf("p50 = %v, want 25", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Fatalf("singleton p99 = %v", got)
	}
}

// TestPercentileType7 pins the estimator to R/NumPy's default "type 7":
// linear interpolation between the order statistics at rank q·(len−1) —
// checked against numpy.percentile reference values, on the sort oracle and
// on the streaming digest.
func TestPercentileType7(t *testing.T) {
	// numpy.percentile([15, 20, 35, 40, 50], q) for q in {5, 30, 40, 90, 99}.
	sorted := []int64{15, 20, 35, 40, 50}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.05, 16.0}, // pos 0.2: 15 + 0.2·(20−15)
		{0.25, 20.0}, // pos 1.0 lands exactly on an order statistic
		{0.30, 23.0}, // pos 1.2: 20 + 0.2·(35−20) — NOT nearest-rank's 20
		{0.40, 29.0}, // pos 1.6: 20 + 0.6·(35−20)
		{0.90, 46.0}, // pos 3.6: 40 + 0.6·(50−40)
		{0.99, 49.6}, // pos 3.96
	}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Fatalf("p%v = %v, want %v", c.q*100, got, c.want)
		}
		var d digest
		for _, v := range sorted {
			d.add(v)
		}
		lo, hi, _ := bracket(d.n, c.q)
		var at [2]int64
		d.values([]int{lo, hi}, at[:])
		if got := interpolate(d.n, c.q, at[0], at[1]); got != c.want {
			t.Fatalf("digest p%v = %v, want %v", c.q*100, got, c.want)
		}
	}

	s := digestOf([]int64{50, 15, 40, 20, 35})
	if s.P50 != 35 || s.Min != 15 || s.Max != 50 {
		t.Fatalf("digest wrong: %+v", s)
	}
	if want := (15.0 + 20 + 35 + 40 + 50) / 5; s.Mean != want {
		t.Fatalf("mean = %v, want %v", s.Mean, want)
	}
	if s.P90 != 46.0 || s.P99 != 49.6 {
		t.Fatalf("p90/p99 = %v/%v, want 46/49.6", s.P90, s.P99)
	}
}

// TestScanPeakMatchesSummarize: the series' one-pass bottleneck scan agrees
// with loadstat.Summarize on (bottleneck, max load, load sum) for random
// sent/received vectors — small values, so ties are the common case, and the
// all-zero vector, which reads processor 1.
func TestScanPeakMatchesSummarize(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(12)
		sent, recv := make([]int64, n+1), make([]int64, n+1)
		if i > 0 {
			for p := 1; p <= n; p++ {
				sent[p], recv[p] = int64(r.Intn(3)), int64(r.Intn(3))
			}
		}
		proc, load, sum := scanPeak(sent, recv)
		want := loadstat.Summarize(sent, recv)
		if proc != want.Bottleneck || load != want.MaxLoad || sum != want.SumLoads {
			t.Fatalf("sent %v recv %v: scan = (p%d, %d, sum %d), Summarize = (p%d, %d, sum %d)",
				sent, recv, proc, load, sum, want.Bottleneck, want.MaxLoad, want.SumLoads)
		}
	}
}

func TestThinSeries(t *testing.T) {
	series := make([]Sample, 200)
	for i := range series {
		series[i].Completed = i + 1
	}
	out := thinSeries(series, 64)
	if len(out) != 64 {
		t.Fatalf("thinned to %d, want 64", len(out))
	}
	if out[0].Completed != 1 || out[63].Completed != 200 {
		t.Fatalf("endpoints lost: %d..%d", out[0].Completed, out[63].Completed)
	}
	short := thinSeries(series[:10], 64)
	if len(short) != 10 {
		t.Fatalf("short series modified: %d", len(short))
	}
}

// TestPeakConcurrencyTakesCompletionOrder: the engine reports intervals in
// completion order, not time order, with zero-duration operations in the
// mix; the sweep drops the start/done pairing and must still pair nothing
// wrongly.
func TestPeakConcurrencyTakesCompletionOrder(t *testing.T) {
	// Intervals [5,5], [3,9), [7,8), [2,4): ops 1 and 2 overlap at t=7 and
	// op 0 occupies its start tick inside op 1's interval — peak 2.
	starts := []int64{5, 3, 7, 2}
	dones := []int64{5, 9, 8, 4}
	if got := sweepAll(starts, dones); got != 2 {
		t.Fatalf("sweep = %d, want 2", got)
	}
	if got := peakConcurrency(starts, dones); got != 2 {
		t.Fatalf("oracle peakConcurrency = %d, want 2", got)
	}
}
