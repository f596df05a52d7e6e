package engine

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"distcount/internal/countersvc"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// cell is one {backend} × {single, keyed} combination. build makes a fresh
// counter or service and returns the function that runs a scenario on it, so
// calling that function twice is a reuse.
type cell struct {
	name        string
	wall, keyed bool
	build       func(t *testing.T) func(gen workload.Generator, cfg Config) (*Result, error)
}

// gen is the matrix scenario, keyed on the keyed cells.
func (c cell) gen(t *testing.T) workload.Generator {
	if c.keyed {
		return matrixGen(t, matrixKeys)
	}
	return matrixGen(t, 0)
}

const (
	matrixN    = 5
	matrixOps  = 160
	matrixKeys = 8
)

// offHolder shifts every request one processor up, off central's holder
// (processor 1). The holder's own increments complete within their start
// event, and PeakInFlight counts each such zero-duration operation as
// occupying its whole start tick — several in one tick would read as more
// than the closed-loop window.
type offHolder struct{ workload.Generator }

func (g offHolder) Next() (workload.Request, bool) {
	req, ok := g.Generator.Next()
	req.Proc++
	return req, ok
}

func matrixGen(t *testing.T, keys int) workload.Generator {
	return offHolder{mustScenario(t, "uniform",
		workload.Config{N: matrixN - 1, Ops: matrixOps, Seed: 21, Keys: keys, MeanGap: 1})}
}

func matrixSvc(t *testing.T, backend string) *countersvc.Service {
	return keyedSvc(t, countersvc.Config{Keys: matrixKeys, N: matrixN, Shards: 2,
		Registry: registry.Config{Backend: backend, Window: registry.DefaultWindow}})
}

func matrixCells() []cell {
	return []cell{
		{name: "sim/single", build: func(t *testing.T) func(workload.Generator, Config) (*Result, error) {
			c := mustAsync(t, "central", matrixN)
			return func(gen workload.Generator, cfg Config) (*Result, error) { return Run(c, gen, cfg) }
		}},
		{name: "sim/keyed", keyed: true, build: func(t *testing.T) func(workload.Generator, Config) (*Result, error) {
			svc := matrixSvc(t, "sim")
			return func(gen workload.Generator, cfg Config) (*Result, error) { return RunKeyed(svc, gen, cfg) }
		}},
		{name: "rt/single", wall: true, build: func(t *testing.T) func(workload.Generator, Config) (*Result, error) {
			c, err := registry.NewWith("central", matrixN, registry.Config{Backend: "rt", Window: registry.DefaultWindow})
			if err != nil {
				t.Fatal(err)
			}
			return func(gen workload.Generator, cfg Config) (*Result, error) { return Run(c, gen, cfg) }
		}},
		{name: "rt/keyed", wall: true, keyed: true, build: func(t *testing.T) func(workload.Generator, Config) (*Result, error) {
			svc := matrixSvc(t, "rt")
			return func(gen workload.Generator, cfg Config) (*Result, error) { return RunKeyed(svc, gen, cfg) }
		}},
	}
}

// TestLoopMatrix: every cell of {closed, open} × {sim, rt} × {single, keyed}
// runs through the same two loops, one service and one metrics type, so they
// all share the report's structural invariants. The rt cells also check that
// nothing survives the run's close: worker, clock and sink goroutines have
// all exited when the run returns.
func TestLoopMatrix(t *testing.T) {
	for _, c := range matrixCells() {
		for _, mode := range []Mode{Closed, Open} {
			t.Run(c.name+"/"+mode.String(), func(t *testing.T) {
				goroutines := runtime.NumGoroutine()
				res, err := c.build(t)(c.gen(t), Config{Mode: mode, InFlight: 3, Warmup: 10, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				if c.wall {
					for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines after the run, %d before the runtime was built", runtime.NumGoroutine(), goroutines)
						}
						time.Sleep(time.Millisecond)
					}
				}
				if res.Arrivals != matrixOps || res.Ops+res.Dropped != res.Arrivals {
					t.Fatalf("ops %d + dropped %d != arrivals %d (offered %d)", res.Ops, res.Dropped, res.Arrivals, matrixOps)
				}
				if res.Measured != res.Ops-10 {
					t.Fatalf("measured %d of %d ops with warmup 10", res.Measured, res.Ops)
				}
				if split := res.QueueDelay.Mean + res.ServiceLatency.Mean; math.Abs(res.Latency.Mean-split) > 1e-6*res.Latency.Mean {
					t.Fatalf("mean latency %v != queue %v + service %v", res.Latency.Mean, res.QueueDelay.Mean, res.ServiceLatency.Mean)
				}
				if mode == Closed {
					if res.InFlight != 3 || res.PeakInFlight > 3 || res.Buckets != nil || res.QueueCap != 0 {
						t.Fatalf("closed shape wrong: window %d peak %d buckets %d queue cap %d",
							res.InFlight, res.PeakInFlight, len(res.Buckets), res.QueueCap)
					}
				} else if res.InFlight != 0 || len(res.Buckets) == 0 || res.QueueCap == 0 {
					t.Fatalf("open shape wrong: window %d buckets %d queue cap %d", res.InFlight, len(res.Buckets), res.QueueCap)
				}
				if res.Wall != c.wall || (res.TickNs > 0) != c.wall {
					t.Fatalf("wall %v tick %d ns on a wall=%v cell", res.Wall, res.TickNs, c.wall)
				}
				// The rate unit: ops per tick on sim, ops per second on rt.
				unit := 1.0
				if c.wall {
					unit = 1e9
				}
				want := float64(res.Measured) / float64(max(res.SimTime-res.MeasureStart, 1)) * unit
				if math.Abs(res.Throughput-want) > 1e-9*want {
					t.Fatalf("throughput %v, want %v (rate unit ×%g)", res.Throughput, want, unit)
				}
				if res.Verification == nil || res.Verification.Violations != 0 {
					t.Fatalf("verification not clean: %+v", res.Verification)
				}
				if c.keyed {
					sum := 0
					for _, ks := range res.PerKey {
						sum += ks.Ops
					}
					if res.Keys != matrixKeys || res.Shards != 2 || res.KeyedVerification == nil || sum != res.Ops {
						t.Fatalf("keyed shape wrong: keys %d shards %d per-key sum %d of %d", res.Keys, res.Shards, sum, res.Ops)
					}
				} else if res.Keys != 0 || res.PerKey != nil || res.KeyedVerification != nil {
					t.Fatalf("single-counter run carries keyed fields: keys %d", res.Keys)
				}
			})
		}
	}
}

// TestReuseRejected: every entry point refuses a counter, runtime or service
// that has already run, with an error. The rt-backed service is the
// regression case: its first run closes the shard runtimes, and before the
// shared freshness check a second RunKeyed panicked with "rt: Start after
// Close".
func TestReuseRejected(t *testing.T) {
	for _, c := range matrixCells() {
		t.Run(c.name, func(t *testing.T) {
			run := c.build(t)
			if _, err := run(c.gen(t), Config{}); err != nil {
				t.Fatalf("first run: %v", err)
			}
			if _, err := run(c.gen(t), Config{}); err == nil {
				t.Fatal("reused counter or service accepted")
			}
		})
	}
}

// TestZeroLoadSampleReadsProcessorOne: a series sample taken while every load
// is still zero names processor 1, loadstat.Summarize's rule, on every cell.
// The first operation is central's holder incrementing locally, which sends
// no message.
func TestZeroLoadSampleReadsProcessorOne(t *testing.T) {
	for _, c := range matrixCells() {
		t.Run(c.name, func(t *testing.T) {
			gen := workload.Replay("holder first", []sim.ProcID{1, 2, 3}, 1)
			res, err := c.build(t)(gen, Config{InFlight: 1, SampleEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			if first := res.Series[0]; first.BottleneckLoad != 0 || first.Bottleneck != 1 {
				t.Fatalf("first sample %+v, want the all-zero loads to read bottleneck 1", first)
			}
		})
	}
}

// TestSingleCounterIsOneKeyService pins the claim the one drive path rests on:
// a single counter is the degenerate 1-key, 1-shard, always-open service.
// The same seeded scenario through Run on central and through RunKeyed on a
// 1-key/1-shard central service yields the same report, while the single
// run keeps its own identity: its algorithm's name, no keyed fields, and
// the single-counter verification.
func TestSingleCounterIsOneKeyService(t *testing.T) {
	for _, mode := range []Mode{Closed, Open} {
		const n = 8
		wl := workload.Config{N: n, Ops: 600, Seed: 13, MeanGap: 1}
		opts := registry.Concurrent(sim.WithServiceTime(2))
		cfg := Config{Mode: mode, InFlight: 4, Warmup: 50, Verify: true}

		c, err := registry.NewWith("central", n, opts)
		if err != nil {
			t.Fatal(err)
		}
		single, err := Run(c, mustScenario(t, "uniform", wl), cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc := keyedSvc(t, countersvc.Config{Keys: 1, N: n, Shards: 1, Registry: opts})
		keyed, err := RunKeyed(svc, mustScenario(t, "uniform", wl), cfg)
		if err != nil {
			t.Fatal(err)
		}

		if single.Ops != keyed.Ops || single.SimTime != keyed.SimTime || single.Throughput != keyed.Throughput ||
			single.Messages != keyed.Messages || single.PeakInFlight != keyed.PeakInFlight {
			t.Fatalf("mode %v: single ops %d t=%d thr %v msgs %d, keyed ops %d t=%d thr %v msgs %d", mode,
				single.Ops, single.SimTime, single.Throughput, single.Messages,
				keyed.Ops, keyed.SimTime, keyed.Throughput, keyed.Messages)
		}
		if single.Algorithm != "central" || single.Keys != 0 || single.Shards != 0 || single.ShardAlgos != nil ||
			single.PerKey != nil || single.KeyedVerification != nil || single.Verification.Property != "linearizable" {
			t.Fatalf("mode %v: single run reports as a service: algorithm %q keys %d shards %d %v per-key %d keyed verification %v, property %q",
				mode, single.Algorithm, single.Keys, single.Shards, single.ShardAlgos, len(single.PerKey),
				single.KeyedVerification != nil, single.Verification.Property)
		}
		for _, f := range []struct {
			name string
			a, b any
		}{
			{"latency", single.Latency, keyed.Latency},
			{"queue delay", single.QueueDelay, keyed.QueueDelay},
			{"service latency", single.ServiceLatency, keyed.ServiceLatency},
			{"loads", single.Loads, keyed.Loads},
			{"series", single.Series, keyed.Series},
			{"buckets", single.Buckets, keyed.Buckets},
			{"knee", single.Knee, keyed.Knee},
		} {
			if !reflect.DeepEqual(f.a, f.b) {
				t.Fatalf("mode %v: %s differs:\nsingle %+v\nkeyed  %+v", mode, f.name, f.a, f.b)
			}
		}
	}
}
