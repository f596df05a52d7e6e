package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"time"

	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/registry"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

// Layer probes: each isolates one module behind its public functions, in
// the shape of the Go microbenchmarks of bench_test.go (so the figures are
// comparable with BENCH_9.json). None depends on the workload being run, so
// they run once per traced suite, after sim_closed_central.
// Iteration counts are sizes at scale 1, about 0.3 s each.

// probeBatches splits a probe's iterations so its figure is a median.
const probeBatches = 5

// timeBatches runs op iterations times in probeBatches batches and returns
// the per-iteration nanoseconds of each batch plus mallocs per iteration
// over all of them.
func timeBatches(iterations int, op func(i int) error) (nsPerOp []float64, allocsPerOp float64, err error) {
	per := max(1, iterations/probeBatches)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	i := 0
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for end := i + per; i < end; i++ {
			if err := op(i); err != nil {
				return nil, 0, err
			}
		}
		nsPerOp = append(nsPerOp, float64(time.Since(start).Nanoseconds())/float64(per))
	}
	runtime.ReadMemStats(&after)
	return nsPerOp, float64(after.Mallocs-before.Mallocs) / float64(i), nil
}

func runProbes(cfg config, tr *tracer, m metricSet) error {
	tr.workload = "probes"
	for _, probe := range []func(config, *tracer, metricSet) error{
		probeSim, probeCounters, probeVerify, probeCountersvc, probeRT, probeRTTimers, probeLoadgen,
	} {
		if err := probe(cfg, tr, m); err != nil {
			return err
		}
	}
	return nil
}

// ping is the payload of the simulator probe: a request that is answered
// once, so an operation is three events like a central increment. It is a
// two-word struct like the protocols' own payloads, so boxing it into
// sim.Payload costs what theirs costs.
type ping struct {
	reply bool
	seq   int
}

func (ping) Kind() string { return "ping" }

type pingPong struct{}

func (pingPong) Deliver(nw sim.Transport, msg sim.Message) {
	if !msg.Payload.(ping).reply {
		nw.Send(msg.From, ping{reply: true, seq: msg.Payload.(ping).seq})
	}
}

// probeSim times the discrete-event loop alone: a two-processor ping-pong
// protocol that does no work, without and with a receiver service time.
func probeSim(cfg config, _ *tracer, m metricSet) error {
	const eventsPerOp = 3
	seq := 0
	start := func(nw sim.Transport, _ sim.ProcID) { seq++; nw.Send(2, ping{seq: seq}) }
	for _, v := range []struct {
		metric string
		opts   []sim.Option
	}{
		{"sim.step_ns_per_event", nil},
		{"sim.step_ns_per_event_service", []sim.Option{sim.WithServiceTime(1)}},
	} {
		net := sim.New(2, pingPong{}, v.opts...)
		ns, allocs, err := timeBatches(scaled(400_000, cfg.scale), func(int) error {
			id := net.StartOp(1, start)
			if err := net.Run(); err != nil {
				return err
			}
			net.ForgetOp(id)
			return nil
		})
		if err != nil {
			return err
		}
		for i := range ns {
			ns[i] /= eventsPerOp
		}
		m.sample(v.metric, ns)
		if v.opts == nil {
			m.set("sim.allocs_per_event", allocs/eventsPerOp)
		}
	}
	return nil
}

// probeCounters times sequential increments per algorithm at n=81, the
// BenchmarkInc shape: protocol handlers plus the simulator under them.
func probeCounters(cfg config, _ *tracer, m metricSet) error {
	iterations := map[string]int{
		"central": 400_000, "ctree": 60_000, "combining": 100_000, "cnet": 120_000, "quorum-majority": 20_000,
	}
	for _, algo := range probeAlgos {
		c, err := registry.New(algo, 81)
		if err != nil {
			return err
		}
		n := c.N()
		ns, allocs, err := timeBatches(scaled(iterations[algo], cfg.scale), func(i int) error {
			_, err := c.Inc(sim.ProcID(i%n + 1))
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		m.sample("counters."+algo+".inc_ns_per_op", ns)
		m.set("counters."+algo+".allocs_per_op", allocs)
		m.set("counters."+algo+".msgs_per_op", float64(c.Net().MessagesTotal())/float64(c.Net().Ops()))
	}
	return nil
}

// probeVerify times verify.Evaluate directly on a synthetic linearizable
// history: value i handed to an operation that ran during [2i, 2i+1].
func probeVerify(cfg config, tr *tracer, m metricSet) error {
	vals := make([]verify.TimedValue, scaled(250_000, cfg.scale))
	for i := range vals {
		vals[i] = verify.TimedValue{Op: sim.OpID(i + 1), Value: i, Start: int64(2 * i), End: int64(2*i + 1)}
	}
	var ns []float64
	for b := 0; b < probeBatches; b++ {
		var rep verify.Report
		d := tr.timed("verify.Evaluate", func() {
			rep = verify.Evaluate(counter.Exact(counter.Linearizable), vals, 0)
		})
		if rep.Violations != 0 {
			return fmt.Errorf("verify.Evaluate rejects a linearizable history: %s", rep.First)
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(len(vals)))
	}
	m.sample("verify.evaluate_ns_per_op", ns)
	return nil
}

// probeCountersvc times one keyed increment hashed to its home shard and
// run to quiescence (the BenchmarkIncSharded shape); the gap to the bare
// central counter is the routing table's own cost.
func probeCountersvc(cfg config, tr *tracer, m metricSet) error {
	for _, shards := range []int{1, 4} {
		var svc *countersvc.Service
		var err error
		tr.timed("countersvc.New", func() {
			svc, err = countersvc.New(countersvc.Config{
				Keys: 64, N: 64, Shards: shards, Algo: "central", Registry: registry.Concurrent(),
			})
		})
		if err != nil {
			return err
		}
		ns, _, err := timeBatches(scaled(300_000, cfg.scale), func(i int) error {
			// Initiators 2..64: processor 1 hosts every central shard.
			svc.Start(svc.Now(), i%64, sim.ProcID(i%63+2))
			return svc.Run()
		})
		if err != nil {
			return err
		}
		m.sample(fmt.Sprintf("countersvc.inc_ns_per_op.shards%d", shards), ns)
	}
	m.set("countersvc.dispatch_overhead_ns_per_op",
		m["countersvc.inc_ns_per_op.shards4"].Value-m["counters.central.inc_ns_per_op"].Value)
	return nil
}

// rtCentral builds the central counter on the goroutine backend.
func rtCentral(tr *tracer) (*rt.Runtime, time.Duration, error) {
	cfg := registry.Concurrent()
	cfg.Backend = "rt"
	var c counter.Async
	var err error
	d := tr.timed("registry.NewWith", func() { c, err = registry.NewWith("central", 8, cfg) })
	if err != nil {
		return nil, 0, err
	}
	return c.(*rt.Runtime), d, nil
}

// probeRT times the rt substrate: goroutine spawn, and one synchronous
// increment end to end (the BenchmarkRTInc shape) — a mailbox send, a real
// goroutine picking it up, and the completion hop back.
func probeRT(cfg config, tr *tracer, m metricSet) error {
	var spawn []float64
	for i := 0; i < 2*probeBatches; i++ {
		r, d, err := rtCentral(tr)
		if err != nil {
			return err
		}
		r.Close()
		spawn = append(spawn, ms(d))
	}
	m.sample("rt.spawn_ms", spawn)

	r, _, err := rtCentral(tr)
	if err != nil {
		return err
	}
	defer r.Close()
	n := r.N()
	iterations := scaled(150_000, cfg.scale)
	ns, _, err := timeBatches(iterations, func(i int) error {
		// Initiators 2..n: processor 1 hosts the counter, so every
		// increment crosses a mailbox.
		_, err := r.Inc(sim.ProcID(i%(n-1) + 2))
		return err
	})
	if err != nil {
		return err
	}
	m.sample("rt.inc_roundtrip_ns", ns)
	m.set("rt.msgs_per_op", float64(r.MessagesTotal())/float64(r.Ops()))
	return nil
}

// wake is the timer payload of the slop probe; due is when the wakeup was
// asked for, in runtime nanoseconds.
type wake struct{ due int64 }

func (wake) Kind() string { return "wake" }

// slopProto records how late each After wakeup is delivered. Only
// processor 1 initiates, so its goroutine is the only writer; the probe
// reads after the synchronous Inc returned.
type slopProto struct {
	lateNs []float64
}

func (p *slopProto) Deliver(nw sim.Transport, msg sim.Message) {
	p.lateNs = append(p.lateNs, float64(nw.Now()-msg.Payload.(wake).due))
}

// probeRTTimers measures the slop of the rt backend's timers: a machine
// whose operation is a single After(rtMergeWindow) — the merge window the
// combining tree of rt_closed_combining waits on — delivered at Now() minus
// the time asked for.
func probeRTTimers(cfg config, _ *tracer, m metricSet) error {
	const delayTicks = rtMergeWindow
	proto := &slopProto{}
	var r *rt.Runtime
	r = rt.New(counter.Machine{
		Name: "after-slop", N: 1, Proto: proto,
		Initiate: func(nw counter.Transport, _ sim.ProcID) {
			nw.After(delayTicks, wake{due: nw.Now() + delayTicks*r.Tick().Nanoseconds()})
		},
		Value:     func(sim.OpID) (int, bool) { return 0, true },
		Guarantee: counter.Exact(counter.Linearizable),
	})
	defer r.Close()
	for i, n := 0, scaled(4_000, cfg.scale); i < n; i++ {
		if _, err := r.Inc(1); err != nil {
			return err
		}
	}
	sort.Float64s(proto.lateNs)
	m.set("rt.after_slop_us_p50", quantile(proto.lateNs, 0.50)/1e3)
	m.set("rt.after_slop_us_p99", quantile(proto.lateNs, 0.99)/1e3)
	return nil
}

// probeLoadgen times the binary's start-up: exec, flag parsing, registry
// listing, exit.
func probeLoadgen(cfg config, tr *tracer, m metricSet) error {
	var startup []float64
	for i := 0; i < probeBatches; i++ {
		var err error
		d := tr.timed("exec loadgen -list", func() { err = exec.Command(cfg.loadgen, "-list").Run() })
		if err != nil {
			return fmt.Errorf("loadgen -list: %w", err)
		}
		startup = append(startup, ms(d))
	}
	m.sample("loadgen.startup_ms", startup)
	return nil
}
