package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"distcount/internal/counter"
	"distcount/internal/counters/central"
	"distcount/internal/countersvc"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/verify"
	"distcount/internal/workload"
)

// TestStagesScheduleIndependence: the producer and the bookkeeper run beside
// the simulation, and no result may depend on how the three goroutines are
// scheduled. Each shape runs once on one processor, where the stages take
// turns, and once on two, where they overlap, and the reports must be equal
// field for field.
func TestStagesScheduleIndependence(t *testing.T) {
	shapes := []struct {
		name  string
		run   func(t *testing.T) *Result
		check func(t *testing.T, res *Result)
	}{
		{"keyed skew with migration", func(t *testing.T) *Result {
			const ops = 20_000
			svc := keyedSvc(t, countersvc.Config{
				Keys: 64, N: 64, Shards: 4, Algo: "central",
				Registry:  registry.Concurrent(sim.WithServiceTime(3)),
				Migration: &countersvc.Migration{To: "cnet", HotShare: 0.25, CheckEvery: 256},
			})
			gen := keyedGen(t, workload.Config{N: 64, Ops: ops, Seed: 7, MeanGap: 1,
				Keys: 64, KeyDist: "zipf", KeyZipfS: 1.2}, "uniform")
			res, err := RunKeyed(svc, gen, Config{InFlight: 32, Warmup: ops / 10, Ops: ops, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, func(t *testing.T, res *Result) {
			if len(res.Migrations) == 0 || res.Verification.Violations != 0 {
				t.Fatalf("migrations %v, verification %+v: want a clean migrated run", res.Migrations, res.Verification)
			}
		}},
		{"open-loop ramp past the knee", func(t *testing.T) *Result {
			const ops = 20_000
			c := mustAsyncService(t, "central", 64, 1)
			gen := mustScenario(t, "ramprate", workload.Config{N: 64, Ops: ops, Seed: 7, MeanGap: 4, RateTo: 4})
			res, err := Run(c, gen, Config{Mode: Open, KneeBuckets: 48, Warmup: ops / 10, Ops: ops, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, func(t *testing.T, res *Result) {
			if res.Knee == nil || res.Verification.Violations != 0 {
				t.Fatalf("knee %+v, verification %+v: want a clean saturated run", res.Knee, res.Verification)
			}
		}},
		{"loss and a crash that wedge", func(t *testing.T) *Result {
			// The open loop keeps serving the initiators that have not
			// wedged yet, so the held-back frontier spans many batches.
			const ops = 20_000
			cfg := registry.Concurrent()
			cfg.Faults = &sim.FaultPlan{Loss: 0.02, Crashes: []sim.Downtime{{Proc: 1, From: 500}}}
			c, err := registry.NewWith("ctree", 64, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen := mustScenario(t, "uniform", workload.Config{N: c.N(), Ops: ops, Seed: 1})
			res, err := Run(c, gen, Config{Mode: Open, Ops: ops, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, func(t *testing.T, res *Result) {
			if res.Wedged == 0 || res.Ops < 4*batchLen || res.Verification == nil {
				t.Fatalf("%d ops, %d wedged, verification %+v: want a verified run that wedges after a few batches",
					res.Ops, res.Wedged, res.Verification)
			}
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			var got [2]*Result
			for i, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				got[i] = shape.run(t)
				runtime.GOMAXPROCS(prev)
			}
			shape.check(t, got[0])
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("reports differ between GOMAXPROCS 1 and 2:\n%+v\n%+v", got[0], got[1])
			}
		})
	}
}

// TestStagesExitPaths: however a run ends, both side stages are joined
// before it returns, and a panic on any stage reaches the caller.
func TestStagesExitPaths(t *testing.T) {
	t.Run("processor outside [1,n]", func(t *testing.T) {
		base := runtime.NumGoroutine()
		c := mustAsync(t, "central", 4)
		gen := mustScenario(t, "uniform", workload.Config{N: 8, Ops: 2_000, Seed: 1})
		_, err := Run(c, gen, Config{})
		if err == nil || !strings.Contains(err.Error(), "outside [1,4]") {
			t.Fatalf("err = %v, want the out-of-range processor", err)
		}
		settles(t, base)
	})

	t.Run("protocol panics mid-run", func(t *testing.T) {
		base := runtime.NumGoroutine()
		m := central.NewMachine(8)
		m.Proto = &panicAfter{Protocol: m.Proto, left: 3_000}
		gen := mustScenario(t, "uniform", workload.Config{N: 8, Ops: 5_000, Seed: 1})
		got := recovered(func() { Run(counter.OnSim(m), gen, Config{Verify: true}) })
		if got != "protocol gave up" {
			t.Fatalf("recovered %v, want the protocol's panic", got)
		}
		settles(t, base)
	})

	t.Run("generator panics", func(t *testing.T) {
		base := runtime.NumGoroutine()
		gen := &panicGen{Generator: mustScenario(t, "uniform", workload.Config{N: 8, Ops: 5_000, Seed: 1}), left: 1_000}
		got := recovered(func() { Run(mustAsync(t, "central", 8), gen, Config{}) })
		if got != "generator gave up" {
			t.Fatalf("recovered %v, want the generator's panic", got)
		}
		settles(t, base)
	})

	t.Run("stalled rt run", func(t *testing.T) {
		base := runtime.NumGoroutine()
		cfg := registry.Concurrent()
		cfg.Backend = "rt"
		cfg.Faults = &sim.FaultPlan{Crashes: []sim.Downtime{{Proc: 1, From: 0}}}
		c, err := registry.NewWith("central", 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := mustScenario(t, "uniform", workload.Config{N: 8, Ops: 2_000, Seed: 1, MeanGap: 1})
		res, err := Run(c, gen, Config{Verify: true, WedgeIdle: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if res.Wedged == 0 {
			t.Fatalf("wedged %d: want the crashed holder to stall the run", res.Wedged)
		}
		settles(t, base)
	})

	t.Run("bookkeeper panic surfaces on the driver", func(t *testing.T) {
		base := runtime.NumGoroutine()
		got := recovered(func() {
			svc, err := countersvc.Single(mustAsync(t, "central", 2))
			if err != nil {
				t.Fatal(err)
			}
			res := &Result{N: 2}
			r := &run{svc: svc, res: res, flights: make([]flight, 3),
				m: newMetrics(res, 0, newVerifier(svc, false))}
			r.start(mustScenario(t, "uniform", workload.Config{N: 2, Ops: 10, Seed: 1}))
			defer r.halt()
			// A frontier at 1000 and a sweep's worth of operations after it
			// advance the stream; every operation after that starts at 0,
			// below the frontier, which verify.Stream refuses.
			for i := 0; ; i++ {
				start := int64(1000)
				if i >= sweepChunk {
					start = 0
				}
				d := outcome{tv: verify.TimedValue{Op: sim.OpID(i + 1), Value: i, Start: start, End: start + 1},
					arrival: start, start: start, ok: true}
				if i == 0 {
					d.frontier = 1000
				}
				r.record(d)
			}
		})
		if !strings.Contains(fmt.Sprint(got), "below the frontier") {
			t.Fatalf("recovered %v, want verify.Stream's frontier panic", got)
		}
		settles(t, base)
	})
}

// panicAfter delivers left messages and panics on the next.
type panicAfter struct {
	sim.Protocol
	left int
}

func (p *panicAfter) Deliver(nw sim.Transport, msg sim.Message) {
	if p.left--; p.left < 0 {
		panic("protocol gave up")
	}
	p.Protocol.Deliver(nw, msg)
}

// panicGen yields left requests and panics on the next.
type panicGen struct {
	workload.Generator
	left int
}

func (g *panicGen) Next() (workload.Request, bool) {
	if g.left--; g.left < 0 {
		panic("generator gave up")
	}
	return g.Generator.Next()
}

func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// settles waits for the goroutine count to return to base: a stage, or an
// rt runtime's worker, may still be on its way out when the run returns.
func settles(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
