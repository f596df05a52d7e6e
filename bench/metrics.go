package main

import (
	"fmt"
	"slices"
)

// The metric catalogue: every name the harness prints, with its unit and
// the direction in which it improves. BENCHMARK.json is checked against
// these tables by TestBenchmarkJSONMatchesCatalogue, and -compare takes its
// bounds from here, so a metric is defined in exactly one place.
//
// Two clocks: names starting sim_ or sim. are simulated time (ticks) and
// repeat exactly for a fixed seed; everything else is host time.

// Directions a metric improves in.
const (
	higher = "higher"
	lower  = "lower"
)

// metricDef describes one metric.
type metricDef struct {
	name, unit, better string
	// bound is the relative worsening that counts as a regression
	// (end-to-end metrics only); failed_op_share's 0 is absolute.
	bound float64
	// on lists the workloads the metric is defined on; nil means all.
	on []string
	// count marks a layer metric read from engine.Result counters rather
	// than a clock: on the sim workloads it must repeat exactly, and
	// -compare reports any difference.
	count bool
}

func (d metricDef) appliesTo(workload string) bool {
	return d.on == nil || slices.Contains(d.on, workload)
}

// The seven workloads, in running order.
const (
	wSimClosedCentral   = "sim_closed_central"
	wSimClosedProtocols = "sim_closed_protocols"
	wSimOpenVerify      = "sim_open_verify"
	wSvcKeyedSkew       = "svc_keyed_skew"
	wRTClosedCentral    = "rt_closed_central"
	wRTClosedCombining  = "rt_closed_combining"
	wStudies            = "studies"
)

var (
	simWorkloads    = []string{wSimClosedCentral, wSimClosedProtocols, wSimOpenVerify, wSvcKeyedSkew}
	closedSimTicked = []string{wSimClosedCentral, wSimClosedProtocols, wSvcKeyedSkew}
	rtWorkloads     = []string{wRTClosedCentral, wRTClosedCombining}
)

// endToEnd is what a user of the lab sees. The host-time bounds are as wide
// as they are because the 2-core reference box flips, for tens of seconds at
// a time, into a regime in which the allocation-heavy workloads run about
// 20% slower (see README.md, "Noise policy"): a tighter bound would reject
// changes, and this benchmark, at random. The three metrics defined on
// every workload (on == nil) are the ones BENCHMARK.json gates; the others
// exist only on some workloads, so BENCHMARK.json lists them under
// per_layer (0 where they do not apply) and -compare gates them with the
// bounds below.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.20},
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "study_wall_s", unit: "s", better: lower, bound: 0.25, on: []string{wStudies}},
	{name: "op_latency_p50_us", unit: "us", better: lower, bound: 0.25, on: rtWorkloads},
	{name: "sim_ops_per_tick", unit: "ops/tick", better: higher, bound: 0.005, on: closedSimTicked},
	{name: "sim_knee_ops_per_tick", unit: "ops/tick", better: higher, bound: 0.005, on: []string{wSimOpenVerify}},
	{name: "sim_msgs_per_op", unit: "msgs/op", better: lower, bound: 0.005, on: simWorkloads},
	{name: "failed_op_share", unit: "share", better: lower, bound: 0},
}

// gated returns the end-to-end metrics defined on every workload — the
// end_to_end list of BENCHMARK.json.
func gated() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.on == nil && d.name != "failed_op_share" {
			out = append(out, d)
		}
	}
	return out
}

// probeAlgos are the algorithms the counters.<algo>.* probes cover.
var probeAlgos = []string{"central", "ctree", "combining", "cnet", "quorum-majority"}

// kneeAlgos are the cells of sim_open_verify.
var kneeAlgos = []string{"central", "ctree", "cnet"}

// studyNames are the five packaged studies of the studies workload.
var studyNames = []string{"regression", "scaling", "faults", "skew", "accuracy"}

// layerMetrics is the per_layer list of BENCHMARK.json: the workload-bound
// end-to-end metrics first, then one group per module. A traced run prints
// every one of them; 0 means the workload does not exercise that layer.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.on != nil || d.name == "failed_op_share" {
			out = append(out, metricDef{name: d.name, unit: d.unit, better: d.better})
		}
	}
	add := func(name, unit, better string) {
		out = append(out, metricDef{name: name, unit: unit, better: better})
	}
	count := func(name, unit, better string) {
		out = append(out, metricDef{name: name, unit: unit, better: better, count: true})
	}
	add("workload.next_ns_per_req", "ns/req", lower)
	count("workload.requests", "count", lower)

	add("sim.step_ns_per_event", "ns/event", lower)
	add("sim.step_ns_per_event_service", "ns/event", lower)
	add("sim.allocs_per_event", "allocs/event", lower)
	count("sim.bottleneck_msgs_per_op", "msgs/op", lower)
	count("sim.bottleneck_share", "share", lower)
	count("sim.service_latency_p50_ticks", "ticks", lower)
	count("sim.service_latency_p99_ticks", "ticks", lower)
	count("sim.queue_delay_mean_ticks", "ticks", lower)

	for _, a := range probeAlgos {
		add(fmt.Sprintf("counters.%s.inc_ns_per_op", a), "ns/op", lower)
		add(fmt.Sprintf("counters.%s.allocs_per_op", a), "allocs/op", lower)
		add(fmt.Sprintf("counters.%s.msgs_per_op", a), "msgs/op", lower)
		add(fmt.Sprintf("counters.%s.ops_per_s", a), "1/s", higher)
	}
	for _, a := range kneeAlgos {
		add(fmt.Sprintf("counters.%s.knee_ops_per_tick", a), "ops/tick", higher)
	}

	add("engine.ns_per_op", "ns/op", lower)
	add("engine.overhead_ns_per_op", "ns/op", lower)
	add("engine.allocs_per_op", "allocs/op", lower)
	add("engine.bytes_per_op", "B/op", lower)
	count("engine.queue_delay_share", "share", lower)
	count("engine.drop_share", "share", lower)
	count("engine.peak_in_flight", "count", higher)
	count("engine.peak_queue_depth", "count", lower)

	add("verify.overhead_share", "share", lower)
	add("verify.evaluate_ns_per_op", "ns/op", lower)
	count("verify.violations", "count", lower)

	add("countersvc.inc_ns_per_op.shards1", "ns/op", lower)
	add("countersvc.inc_ns_per_op.shards4", "ns/op", lower)
	add("countersvc.dispatch_overhead_ns_per_op", "ns/op", lower)
	count("countersvc.migrations", "count", lower)
	count("countersvc.migration_at_completed", "count", lower)

	add("rt.inc_roundtrip_ns", "ns/op", lower)
	add("rt.msgs_per_op", "msgs/op", lower)
	add("rt.spawn_ms", "ms", lower)
	add("rt.op_latency_p99_us", "us", lower)
	add("rt.queue_delay_p50_us", "us", lower)
	add("rt.after_slop_us_p50", "us", lower)
	add("rt.after_slop_us_p99", "us", lower)

	add("registry.build_ms", "ms", lower)
	add("countersvc.build_ms", "ms", lower)
	add("report.render_ms", "ms", lower)

	add("loadgen.startup_ms", "ms", lower)
	for _, s := range studyNames {
		add(fmt.Sprintf("loadgen.study_%s_s", s), "s", lower)
	}

	add("host.allocs_per_op", "allocs/op", lower)
	add("host.bytes_per_op", "B/op", lower)
	add("host.gc_cycles", "count", lower)
	add("host.gc_pause_ms", "ms", lower)
	add("host.gc_cpu_share", "share", lower)

	add("bench.trace_overhead_share", "share", lower)
	add("bench.rep_iqr_share", "share", lower)
	return out
}

// unitOf maps every catalogued name to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range layerMetrics {
		m[d.name] = d.unit
	}
	return m
}()

// metricSet collects the metrics of one run, refusing names the catalogue
// does not know so a typo cannot mint a metric.
type metricSet map[string]Stat

// set records a single-valued metric.
func (m metricSet) set(name string, v float64) {
	m.put(name, Stat{Value: v, Q1: v, Q3: v, N: 1})
}

// sample records the median and quartiles of repeated measurements.
func (m metricSet) sample(name string, vals []float64) {
	if len(vals) == 0 {
		return
	}
	med, q1, q3 := summarize(vals)
	m.put(name, Stat{Value: med, Q1: q1, Q3: q3, N: len(vals)})
}

func (m metricSet) put(name string, s Stat) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
	}
	s.Unit = unit
	m[name] = s
}
