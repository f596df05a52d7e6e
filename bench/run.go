package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"distcount/internal/engine/report"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    float64
	// out is where the detailed result is written ("" = nowhere).
	out string
	// loadgen is the built cmd/loadgen binary and baseline the file its
	// regression study checks.
	loadgen, baseline string
}

// Env is the environment a result was measured in.
type Env struct {
	Go         string         `json:"go"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Commit     string         `json:"commit"`
	Seed       uint64         `json:"seed"`
	Scale      float64        `json:"scale"`
	Seconds    int            `json:"seconds"`
	Ops        map[string]int `json:"ops_per_repetition"`
}

func environment(cfg config) Env {
	env := Env{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
		Ops: make(map[string]int),
	}
	// Best effort: a checkout that is not a git repository has no commit.
	// Uncommitted changes are marked, so that -compare does not take two
	// different trees for one commit.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(out) > 0 {
			env.Commit += "-dirty"
		}
	}
	for _, w := range workloads {
		for _, c := range w.cells {
			env.Ops[w.name] += scaled(c.ops, cfg.scale)
		}
	}
	return env
}

// Result is the detailed outcome of one workload: what the last output
// line says, plus spread, environment and (traced) spans.
type Result struct {
	Workload  string    `json:"workload"`
	Traced    bool      `json:"traced"`
	Env       Env       `json:"env"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	Metrics   metricSet `json:"metrics"`
	Spans     []Span    `json:"spans,omitempty"`
}

// minCycles is the fewest timed repetitions of each kind a run makes, however
// short -seconds is.
const minCycles = 3

// runWorkload runs one workload in this process: a discarded warm-up
// repetition, then timed repetitions for cfg.seconds. A traced run
// alternates untraced and traced repetitions (their difference is the
// tracing overhead), adds Verify-off repetitions where the workload
// verifies, and (sim_closed_central only) then runs the layer probes.
func runWorkload(cfg config, procStart time.Time) (*Result, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &runner{cfg: cfg, spec: spec}
	res := &Result{Workload: spec.name, Traced: cfg.trace, Env: environment(cfg), Metrics: make(metricSet)}

	if _, err := r.rep(nil, true); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	oneTimeSetup := time.Since(procStart)

	var tr *tracer
	verifies := false
	if cfg.trace {
		tr = newTracer(spec.name)
		for _, c := range spec.cells {
			verifies = verifies || c.verify
		}
	}
	var plain, traced, unverified []*repResult
	timedRep := func(into *[]*repResult, tr *tracer, verifyOn bool) error {
		runtime.GC()
		rep, err := r.rep(tr, verifyOn)
		if err != nil {
			return err
		}
		*into = append(*into, rep)
		return nil
	}
	host := startHostStats()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for cycle := 0; cycle < minCycles || time.Now().Before(deadline); cycle++ {
		if err := timedRep(&plain, nil, true); err != nil {
			return nil, err
		}
		if cfg.trace {
			tr.rep = cycle
			if err := timedRep(&traced, tr, true); err != nil {
				return nil, err
			}
		}
		if verifies {
			if err := timedRep(&unverified, nil, false); err != nil {
				return nil, err
			}
		}
	}

	// Output checks. The Verify-off repetitions deliberately skip the
	// checkers, so only their operation failures count.
	var totalOps int64
	for _, rep := range slices.Concat(plain, traced, unverified) {
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		totalOps += rep.ops
	}
	if cfg.trace {
		host.record(res.Metrics, totalOps)
	}
	for _, rep := range slices.Concat(plain[1:], traced) {
		if rep.digest != plain[0].digest {
			res.Problems = append(res.Problems, "repetitions of one seed disagree on their simulated statistics")
			res.Failed += rep.attempted
			break
		}
	}
	if res.Failed > 0 && len(res.Problems) == 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d operations failed (wedged, unserved, or violating the claimed guarantee)", res.Failed, res.Attempted))
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = len(res.Problems) == 0

	endToEndMetrics(res.Metrics, spec, plain, oneTimeSetup)
	res.Metrics.set("failed_op_share", float64(res.Failed)/float64(res.Attempted))
	if cfg.trace {
		layerFromReps(res.Metrics, spec, plain, traced, unverified)
		if !spec.studies() {
			cellRes := plain[0].cells[0].res
			d := tr.timed("report.WriteJSON+WriteCSV+Render", func() {
				_ = report.WriteJSON(io.Discard, cellRes) // io.Discard cannot fail
				_ = report.WriteCSV(io.Discard, cellRes)
				_ = report.Render(cellRes)
			})
			res.Metrics.set("report.render_ms", ms(d))
		}
		// The probes do not depend on the workload, so one traced run of the
		// suite makes them once: in the workload whose engine overhead is
		// derived from two of them.
		if spec.name == wSimClosedCentral {
			if err := runProbes(cfg, tr, res.Metrics); err != nil {
				return nil, fmt.Errorf("probes: %w", err)
			}
			res.Metrics.set("engine.overhead_ns_per_op", res.Metrics["engine.ns_per_op"].Value-
				res.Metrics["workload.next_ns_per_req"].Value-res.Metrics["counters.central.inc_ns_per_op"].Value)
		}
		for _, d := range layerMetrics {
			if _, ok := res.Metrics[d.name]; !ok {
				res.Metrics.set(d.name, 0) // layer not exercised by this workload
			}
		}
		res.Spans = tr.spans
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		// The studies do their work in loadgen children; the workload's
		// footprint is the largest process it needed.
		for _, rep := range plain {
			rss = math.Max(rss, float64(rep.childRSSKB)/1024)
		}
		res.Metrics.set("peak_rss_mb", rss)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEndMetrics derives the end-to-end metrics from the untraced
// repetitions.
func endToEndMetrics(m metricSet, spec workloadSpec, reps []*repResult, oneTimeSetup time.Duration) {
	m.sample("ops_per_s", each(reps, (*repResult).opsPerS))
	m.sample("setup_s", each(reps, func(rep *repResult) float64 { return (oneTimeSetup + rep.setup).Seconds() }))
	switch {
	case spec.studies():
		m.sample("study_wall_s", each(reps, func(rep *repResult) float64 { return rep.run.Seconds() }))
		return
	case spec.rt():
		m.sample("op_latency_p50_us", each(reps, func(rep *repResult) float64 { return rep.cells[0].res.ServiceLatency.P50 / 1e3 }))
		return
	}
	// Simulated figures repeat exactly, so the first repetition speaks for
	// all of them (the output check enforces that).
	var ops, measured, ticks, msgs int64
	var knees float64
	for _, c := range reps[0].cells {
		ops += int64(c.res.Ops)
		measured += int64(c.res.Measured)
		ticks += c.res.SimTime - c.res.MeasureStart
		msgs += c.res.Messages
		if c.res.Knee != nil {
			knees += c.res.Knee.OfferedRate
		}
	}
	m.set("sim_msgs_per_op", float64(msgs)/float64(ops))
	if spec.open() {
		m.set("sim_knee_ops_per_tick", knees/float64(len(reps[0].cells)))
	} else {
		m.set("sim_ops_per_tick", float64(measured)/float64(ticks))
	}
}

// layerFromReps derives the per-layer metrics that come from the workload's
// own repetitions: counts from engine.Result, spans around the engine and
// constructors, the generator decorator and the Verify-off differential.
func layerFromReps(m metricSet, spec workloadSpec, plain, traced, unverified []*repResult) {
	plainOps := m["ops_per_s"]
	m.set("bench.rep_iqr_share", iqrShare(plainOps))
	tracedMedian, _, _ := summarize(each(traced, (*repResult).opsPerS))
	m.set("bench.trace_overhead_share", 1-tracedMedian/plainOps.Value)

	if spec.studies() {
		for i, name := range studyNames {
			m.sample("loadgen.study_"+name+"_s", each(plain, func(rep *repResult) float64 { return rep.studies[i].Seconds() }))
		}
		return
	}

	overhead := clockOverhead()
	var nextNs, engineNs, allocs, bytes, regMs, svcMs []float64
	for _, rep := range traced {
		var busy time.Duration
		var calls int64
		var mallocs, b uint64
		var newCounter, newSvc time.Duration
		for _, c := range rep.cells {
			busy += c.genBusy
			calls += c.genCalls
			mallocs += c.mallocs
			b += c.bytes
			newCounter += c.newCounter
			newSvc += c.newSvc
		}
		nextNs = append(nextNs, math.Max(0, float64(busy.Nanoseconds())/float64(calls)-float64(overhead.Nanoseconds())))
		engineNs = append(engineNs, float64(rep.run.Nanoseconds())/float64(rep.ops))
		allocs = append(allocs, float64(mallocs)/float64(rep.ops))
		bytes = append(bytes, float64(b)/float64(rep.ops))
		regMs = append(regMs, ms(newCounter))
		svcMs = append(svcMs, ms(newSvc))
		m.set("workload.requests", float64(calls))
	}
	m.sample("workload.next_ns_per_req", nextNs)
	m.sample("engine.ns_per_op", engineNs)
	m.sample("engine.allocs_per_op", allocs)
	m.sample("engine.bytes_per_op", bytes)
	if spec.keyed() {
		m.sample("countersvc.build_ms", svcMs)
	} else {
		m.sample("registry.build_ms", regMs)
	}

	// Per-cell split: names which cell moved the workload figure.
	for i, c := range spec.cells {
		if c.keyed {
			continue
		}
		m.sample("counters."+c.algo+".ops_per_s", each(plain, func(rep *repResult) float64 {
			return float64(rep.cells[i].res.Ops) / rep.cells[i].run.Seconds()
		}))
		if c.open {
			m.set("counters."+c.algo+".knee_ops_per_tick", plain[0].cells[i].res.Knee.OfferedRate)
		}
	}

	if len(unverified) > 0 {
		seconds := func(rep *repResult) float64 { return rep.run.Seconds() }
		onMed, _, _ := summarize(each(plain, seconds))
		offMed, _, _ := summarize(each(unverified, seconds))
		m.set("verify.overhead_share", 1-offMed/onMed)
	}

	// Counts from engine.Result, over the cells of the first repetition.
	var (
		measured, maxLoad, sumLoads, dropped, arrivals int64
		queueMean, latMean, svcP50, svcP99             float64
		peakInFlight, peakQueue, violations            int
		cells                                          = plain[0].cells
	)
	for _, c := range cells {
		res := c.res
		measured += int64(res.Measured)
		maxLoad += res.Loads.MaxLoad
		sumLoads += res.Loads.SumLoads
		dropped += int64(res.Dropped)
		arrivals += int64(res.Arrivals)
		queueMean += res.QueueDelay.Mean
		latMean += res.Latency.Mean
		svcP50 += res.ServiceLatency.P50
		svcP99 += res.ServiceLatency.P99
		peakInFlight = max(peakInFlight, res.PeakInFlight)
		peakQueue = max(peakQueue, res.PeakQueueDepth)
		if res.Verification != nil {
			violations += res.Verification.Violations
		}
	}
	k := float64(len(cells))
	m.set("engine.queue_delay_share", queueMean/latMean)
	m.set("engine.drop_share", float64(dropped)/float64(arrivals))
	m.set("engine.peak_in_flight", float64(peakInFlight))
	m.set("engine.peak_queue_depth", float64(peakQueue))
	m.set("verify.violations", float64(violations))
	first := cells[0].res
	switch {
	case spec.rt():
		m.sample("rt.op_latency_p99_us", each(plain, func(rep *repResult) float64 { return rep.cells[0].res.ServiceLatency.P99 / 1e3 }))
		m.sample("rt.queue_delay_p50_us", each(plain, func(rep *repResult) float64 { return rep.cells[0].res.QueueDelay.P50 / 1e3 }))
	default:
		m.set("sim.bottleneck_msgs_per_op", float64(maxLoad)/float64(measured))
		m.set("sim.bottleneck_share", float64(maxLoad)/float64(sumLoads))
		m.set("sim.service_latency_p50_ticks", svcP50/k)
		m.set("sim.service_latency_p99_ticks", svcP99/k)
		m.set("sim.queue_delay_mean_ticks", queueMean/k)
	}
	if len(first.Migrations) > 0 {
		m.set("countersvc.migrations", float64(len(first.Migrations)))
		m.set("countersvc.migration_at_completed", float64(first.Migrations[0].AtCompleted))
	}
}

// hostStats brackets a phase with the Go runtime's allocation and GC
// counters.
type hostStats struct {
	mem          runtime.MemStats
	gcCPU, total float64
}

func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startHostStats() *hostStats {
	h := &hostStats{}
	runtime.ReadMemStats(&h.mem)
	h.gcCPU, h.total = cpuSeconds()
	return h
}

// record closes the bracket: what the phase since startHostStats cost, per
// completed op where that makes sense.
func (h *hostStats) record(m metricSet, ops int64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	gc, total := cpuSeconds()
	m.set("host.allocs_per_op", float64(now.Mallocs-h.mem.Mallocs)/float64(ops))
	m.set("host.bytes_per_op", float64(now.TotalAlloc-h.mem.TotalAlloc)/float64(ops))
	m.set("host.gc_cycles", float64(now.NumGC-h.mem.NumGC))
	m.set("host.gc_pause_ms", float64(now.PauseTotalNs-h.mem.PauseTotalNs)/1e6)
	if total > h.total {
		m.set("host.gc_cpu_share", (gc-h.gcCPU)/(total-h.total))
	}
}

// peakRSSMB reads this process's high-water resident set (VmHWM). Each
// workload runs in its own process, so the figure is per workload.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// print writes every metric by name with its unit, the layer self times of
// a traced run, and — last — the one-line JSON object the driver reads.
func (res *Result) print(w io.Writer) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# workload %s seed %d scale %g traced %v (%s, %d cpus, GOMAXPROCS %d, commit %s)\n",
		res.Workload, res.Env.Seed, res.Env.Scale, res.Traced, res.Env.Go, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.Commit)
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintf(w, "%-44s %16.6g %-12s q1 %-12.6g q3 %-12.6g n %d\n", name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	if res.Traced {
		self := selfTimes(res.Spans)
		layers := make([]string, 0, len(self))
		for name := range self {
			layers = append(layers, name)
		}
		sort.Strings(layers)
		for _, name := range layers {
			fmt.Fprintf(w, "self  %-38s %16.3f ms\n", name, float64(self[name])/1e6)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	defs := gated()
	if res.Traced {
		defs = layerMetrics
	}
	for _, d := range defs {
		s, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = value{s.Value, s.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// writeJSON stores a result file, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
