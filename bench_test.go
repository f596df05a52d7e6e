// Benchmark harness: one benchmark over the paper experiments of
// EXPERIMENTS.md (their reports carry the quantities the theorems bound),
// plus per-operation and per-layer microbenchmarks with custom metrics such
// as msgs/op, the average messages per operation.
//
// Run with:
//
//	go test -bench=. -benchmem .
package distcount_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"distcount"
	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/engine"
	"distcount/internal/experiments"
	"distcount/internal/registry"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// BenchmarkExperiments times every paper experiment at full size (what
// `paper exp -all` runs; E4 at n=1024 is ≈16 of its ≈17 s).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInc measures the marginal cost of one inc (simulator time, not
// wall-clock message latency) per algorithm at n=81.
func BenchmarkInc(b *testing.B) {
	for _, algo := range registry.Names() {
		algo := algo
		b.Run(algo+"/n=81", func(b *testing.B) {
			c, err := registry.New(algo, 81)
			if err != nil {
				b.Fatal(err)
			}
			n := c.N()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Inc(distcount.ProcID(i%n + 1)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Net().MessagesTotal())/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkIncSharded measures the service layer's dispatch cost: one keyed
// increment hashed to its home shard and run to quiescence, against the
// single-counter BenchmarkInc baseline. The delta between shard counts is
// the routing table's own overhead — the per-op cost of removing the
// one-counter assumption.
func BenchmarkIncSharded(b *testing.B) {
	for _, shards := range []int{1, 4} {
		shards := shards
		b.Run(fmt.Sprintf("central/shards=%d/n=64", shards), func(b *testing.B) {
			svc, err := countersvc.New(countersvc.Config{
				Keys: 64, N: 64, Shards: shards, Algo: "central",
				Registry: registry.Concurrent(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Initiators 2..64: proc 1 hosts every central shard.
				svc.Start(svc.Now(), i%64, sim.ProcID(i%63+2))
				if err := svc.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(svc.MessagesTotal())/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkWorkloadEngineKeyed runs the keyed closed-loop driver end to end
// over the sharded service — the skew study's cell shape — for the three
// compared assignments: all-central homes, all-counting-network homes, and
// adaptive (central homes, hot-key migration to a counting-network shard).
func BenchmarkWorkloadEngineKeyed(b *testing.B) {
	const ops = 2000
	for _, cfg := range []struct {
		label string
		algo  string
		mig   *countersvc.Migration
	}{
		{"central[4]", "central", nil},
		{"cnet[4]", "cnet", nil},
		{"adaptive", "central", &countersvc.Migration{To: "cnet", HotShare: 0.25, CheckEvery: 256}},
	} {
		cfg := cfg
		b.Run(fmt.Sprintf("%s/keys=64/n=64", cfg.label), func(b *testing.B) {
			var rep *engine.Result
			for i := 0; i < b.N; i++ {
				svc, err := countersvc.New(countersvc.Config{
					Keys: 64, N: 64, Shards: 4, Algo: cfg.algo, Migration: cfg.mig,
					Registry: registry.Concurrent(sim.WithServiceTime(3)),
				})
				if err != nil {
					b.Fatal(err)
				}
				sc, err := workload.New("uniform", workload.Config{
					N: svc.N(), Ops: ops, Seed: 1, MeanGap: 1,
					Keys: 64, KeyDist: "zipf", KeyZipfS: 1.2,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err = engine.RunKeyed(svc, sc, engine.Config{InFlight: 32, Warmup: ops / 10, Ops: ops})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Throughput, "ops/tick")
			b.ReportMetric(float64(len(rep.Migrations)), "migrations")
		})
	}
}

// BenchmarkSimulatorEventThroughput isolates the substrate: raw event
// processing rate of the discrete-event engine (each central counter op is
// three events: the operation start plus the request and reply deliveries).
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	c, err := registry.New("central", 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Inc(distcount.ProcID(i%63 + 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpTable isolates the protocol-side bookkeeping every operation
// pays whatever the algorithm: one Begin/Finish/Take cycle of counter.Ops
// over 64 rotating initiators, outside any simulator (the stub transport
// only names the current operation).
func BenchmarkOpTable(b *testing.B) {
	ops := counter.NewOps[struct{}, int](64)
	ctx := &opContext{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.op = sim.OpID(i + 1)
		p := sim.ProcID(i%64 + 1)
		ops.Begin(ctx, p)
		ops.Finish(ctx, p, i)
		if _, ok := ops.Take(ctx.op); !ok {
			b.Fatalf("operation %d left no value", ctx.op)
		}
	}
}

// opContext is the one Transport method the op table calls.
type opContext struct {
	sim.Transport
	op sim.OpID
}

func (c *opContext) CurrentOp() sim.OpID { return c.op }

// BenchmarkWorkloadEngine runs the closed-loop driver end to end —
// scenario generation, concurrent injection, completion tracking, and
// report assembly — across representative algorithm x scenario pairs. The
// custom metrics surface the quantities the workload reports are about:
// simulated throughput and the bottleneck load. The gap=1 rows are the
// cells of the repository benchmark's sim_closed_protocols workload (uniform
// arrivals at mean gap 1, 16 in flight) at bench size.
func BenchmarkWorkloadEngine(b *testing.B) {
	const ops = 2000
	for _, cfg := range []struct {
		algo, scen string
		n          int
		gap        int64 // workload.Config.MeanGap; 0 keeps the scenario's default
	}{
		{"central", "uniform", 64, 0},
		{"central", "zipf", 64, 0},
		{"ctree", "zipf", 256, 0},
		{"ctree", "bursty", 256, 0},
		{"combining", "hotspot", 64, 0},
		{"difftree", "uniform", 64, 0},
		{"ctree", "uniform", 256, 1},
		{"combining", "uniform", 64, 1},
		{"quorum-majority", "uniform", 81, 1},
	} {
		cfg := cfg
		name := fmt.Sprintf("%s/%s/n=%d", cfg.algo, cfg.scen, cfg.n)
		if cfg.gap > 0 {
			name += fmt.Sprintf("/gap=%d", cfg.gap)
		}
		b.Run(name, func(b *testing.B) {
			var rep *distcount.WorkloadReport
			for i := 0; i < b.N; i++ {
				c, err := registry.NewWith(cfg.algo, cfg.n, registry.Concurrent())
				if err != nil {
					b.Fatal(err)
				}
				sc, err := workload.New(cfg.scen, workload.Config{N: c.N(), Ops: ops, Seed: 1, MeanGap: cfg.gap})
				if err != nil {
					b.Fatal(err)
				}
				rep, err = engine.Run(c, sc, engine.Config{InFlight: 16, Warmup: ops / 10, Ops: ops})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Throughput, "ops/tick")
			b.ReportMetric(float64(rep.Loads.MaxLoad), "m_b")
			b.ReportMetric(rep.Latency.P99, "p99_ticks")
		})
	}
}

// BenchmarkWorkloadEngineWindow sweeps the in-flight window on the tree
// counter under a saturating uniform stream: the wall-clock cost stays
// near-flat while simulated throughput rises with pipelining.
func BenchmarkWorkloadEngineWindow(b *testing.B) {
	const ops = 2000
	for _, window := range []int{1, 4, 16, 64} {
		window := window
		b.Run(fmt.Sprintf("ctree/window=%d", window), func(b *testing.B) {
			var rep *distcount.WorkloadReport
			for i := 0; i < b.N; i++ {
				c, err := registry.NewWith("ctree", 256, registry.Concurrent())
				if err != nil {
					b.Fatal(err)
				}
				sc, err := workload.New("uniform", workload.Config{N: c.N(), Ops: ops, Seed: 1, MeanGap: 1})
				if err != nil {
					b.Fatal(err)
				}
				rep, err = engine.Run(c, sc, engine.Config{InFlight: window, Warmup: ops / 10, Ops: ops})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Throughput, "ops/tick")
			b.ReportMetric(float64(rep.SimTime), "makespan_ticks")
		})
	}
}

// BenchmarkRTInc isolates the rt backend's substrate: one synchronous
// operation end to end — an append to a mutex-guarded mailbox, a parked
// worker woken to drain it, and the completion hop back — with zero
// emulated service cost, so ns/op is the runtime's per-op mailbox and
// scheduling overhead (the cost the discrete-event simulator does not
// charge for).
func BenchmarkRTInc(b *testing.B) {
	cfg := registry.Concurrent()
	cfg.Backend = "rt"
	c, err := registry.NewWith("central", 8, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := c.(*rt.Runtime)
	defer r.Close()
	n := r.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Initiators 2..n: proc 1 hosts the central counter, so every op
		// crosses at least one mailbox hop.
		if _, err := r.Inc(sim.ProcID(i%(n-1) + 2)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.MessagesTotal())/float64(b.N), "msgs/op")
}

// afterWake is BenchmarkRTAfter's timer payload: due is the deadline the
// wakeup was scheduled for, in runtime nanoseconds.
type afterWake struct{ due int64 }

func (afterWake) Kind() string { return "wake" }

// afterLateness records how long after its deadline each wakeup arrives.
// Only processor 1 initiates, and the benchmark reads between synchronous
// Incs, so one worker at a time is the only writer.
type afterLateness struct{ ns []float64 }

func (l *afterLateness) Deliver(nw sim.Transport, msg sim.Message) {
	l.ns = append(l.ns, float64(nw.Now()-msg.Payload.(afterWake).due))
}

// BenchmarkRTAfter measures what a merge window costs on the rt backend: an
// operation that is one After(256 ticks) — the window rt_closed_combining
// waits on — on an otherwise idle runtime. ns/op is the whole round trip
// (256 µs of window plus start and completion hops); late_us_p50/p99 is how
// long past its deadline the wakeup reached the protocol. While timers rode
// time.AfterFunc the median was ≈860 µs (the Go runtime's whole-millisecond
// idle sleep); the clock goroutine's sleep-then-spin wait brings it under a
// few microseconds.
func BenchmarkRTAfter(b *testing.B) {
	const window = 256
	late := &afterLateness{}
	r := rt.New(counter.Machine{
		Name: "after", N: 1, Proto: late,
		Initiate: func(nw counter.Transport, _ sim.ProcID) {
			nw.After(window, afterWake{due: nw.Now() + window*rt.DefaultTick.Nanoseconds()})
		},
		Value:     func(sim.OpID) (int, bool) { return 0, true },
		Guarantee: counter.Exact(counter.Linearizable),
	})
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Inc(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sort.Float64s(late.ns)
	quantile := func(q float64) float64 { return late.ns[int(q*float64(len(late.ns)-1))] / 1e3 }
	b.ReportMetric(quantile(0.50), "late_us_p50")
	b.ReportMetric(quantile(0.99), "late_us_p99")
}

// BenchmarkRTWall runs the wall-clock driver end to end per algorithm at
// n=8 — processor mailboxes on real cores, closed loop — and reports the
// sustained real-hardware ops/sec next to the per-op message count. The
// merge-window schemes (combining, difftree) pay one real window of
// registry.DefaultWindow ticks per tree level here, delivered on time by
// the runtime's clock goroutine, so their gap to central is the protocol's
// own waiting — not the ≈1 ms per window that OS timers used to add.
func BenchmarkRTWall(b *testing.B) {
	const ops = 300
	for _, algo := range registry.Names() {
		algo := algo
		b.Run(algo+"/n=8", func(b *testing.B) {
			var res *engine.Result
			for i := 0; i < b.N; i++ {
				cfg := registry.Concurrent()
				cfg.Backend = "rt"
				c, err := registry.NewWith(algo, 8, cfg)
				if err != nil {
					b.Fatal(err)
				}
				sc, err := workload.New("uniform", workload.Config{N: c.N(), Ops: ops, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err = engine.Run(c, sc, engine.Config{InFlight: c.N(), Warmup: ops / 10})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Throughput, "ops/sec")
			b.ReportMetric(res.Latency.P99, "p99_ns")
		})
	}
}

// BenchmarkRTClosed is the repository benchmark's rt_closed_central cell as a
// root benchmark: central at n=8 on the rt backend, one closed-loop
// client per processor, Verify on, 100 000 operations per run — long enough
// that the figure is the steady per-op cost (RTWall's 300-op runs measure
// mostly spawn and epilogue). Every per-op figure is over the run's own
// operations: ns/op, B/op and allocs/op cover the whole engine.Run call
// (runtime construction excluded), ops/sec is the measure window's
// throughput as the result reports it.
func BenchmarkRTClosed(b *testing.B) {
	const ops = 100_000
	b.Run("central/n=8", func(b *testing.B) {
		var (
			res            *engine.Result
			before, after  runtime.MemStats
			mallocs, bytes uint64
			msgs           int64
		)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := registry.Concurrent()
			cfg.Backend = "rt"
			c, err := registry.NewWith("central", 8, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sc, err := workload.New("uniform", workload.Config{N: c.N(), Ops: ops, Seed: 1, MeanGap: 1})
			if err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			b.StartTimer()
			res, err = engine.Run(c, sc, engine.Config{InFlight: c.N(), Warmup: ops / 10, Ops: ops, Verify: true})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			msgs += res.Messages
			if v := res.Verification; v == nil || v.Violations != 0 {
				b.Fatalf("verification: %+v", v)
			}
		}
		total := float64(b.N) * ops
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/op")
		b.ReportMetric(float64(mallocs)/total, "allocs/op")
		b.ReportMetric(float64(bytes)/total, "B/op")
		b.ReportMetric(float64(msgs)/total, "msgs/op")
		b.ReportMetric(res.Throughput, "ops/sec")
	})
}

// BenchmarkScenarioGeneration isolates the workload generators: requests
// per second of pure stream synthesis.
func BenchmarkScenarioGeneration(b *testing.B) {
	for _, name := range workload.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc, err := workload.New(name, workload.Config{N: 1024, Ops: 10_000, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok := sc.Next(); !ok {
						break
					}
				}
			}
			b.ReportMetric(10_000, "reqs/run")
		})
	}
}
