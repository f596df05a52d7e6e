package engine

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"distcount/internal/countersvc"
	"distcount/internal/registry"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// cell is one {backend} × {single, keyed} combination. build makes a fresh
// substrate and returns the function that runs a scenario on it, so calling
// that function twice is a reuse.
type cell struct {
	name        string
	wall, keyed bool
	build       func(t *testing.T) func(cfg Config) (*Result, error)
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
		{name: "sim/single", build: func(t *testing.T) func(Config) (*Result, error) {
			c := mustAsync(t, "central", matrixN)
			return func(cfg Config) (*Result, error) { return Run(c, matrixGen(t, 0), cfg) }
		}},
		{name: "sim/keyed", keyed: true, build: func(t *testing.T) func(Config) (*Result, error) {
			svc := matrixSvc(t, "sim")
			return func(cfg Config) (*Result, error) { return RunKeyed(svc, matrixGen(t, matrixKeys), cfg) }
		}},
		{name: "rt/single", wall: true, build: func(t *testing.T) func(Config) (*Result, error) {
			c, err := registry.NewWith("central", matrixN, registry.Config{Backend: "rt", Window: registry.DefaultWindow})
			if err != nil {
				t.Fatal(err)
			}
			return func(cfg Config) (*Result, error) { return RunWall(c.(*rt.Runtime), matrixGen(t, 0), cfg) }
		}},
		{name: "rt/keyed", wall: true, keyed: true, build: func(t *testing.T) func(Config) (*Result, error) {
			svc := matrixSvc(t, "rt")
			return func(cfg Config) (*Result, error) { return RunKeyed(svc, matrixGen(t, matrixKeys), cfg) }
		}},
	}
}

// TestLoopMatrix: every cell of {closed, open} × {sim, rt} × {single, keyed}
// runs through the same two loops and one metrics type, so they all share
// the report's structural invariants. The rt cells also check that nothing
// survives the substrate's close: worker, clock and service goroutines
// have all exited when the run returns.
func TestLoopMatrix(t *testing.T) {
	for _, c := range matrixCells() {
		for _, mode := range []Mode{Closed, Open} {
			t.Run(c.name+"/"+mode.String(), func(t *testing.T) {
				goroutines := runtime.NumGoroutine()
				res, err := c.build(t)(Config{Mode: mode, InFlight: 3, Warmup: 10, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				if c.wall {
					for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines after the run, %d before the substrate was built", runtime.NumGoroutine(), goroutines)
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

// silentWall binds a wallRuntime over a fresh central runtime on which nothing
// ever starts, so the only completions are the ones a test puts into its
// sink. done counts the completions the loop is handed.
func silentWall(t *testing.T, stall, wedgeIdle time.Duration, plan *sim.FaultPlan) (w *wallRuntime, done *int) {
	c, err := registry.NewWith("central", 2, registry.Config{Backend: "rt", Window: registry.DefaultWindow, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	w = &wallRuntime{r: c.(*rt.Runtime), stall: stall, wedgeIdle: wedgeIdle}
	done = new(int)
	w.bind(func(completion) { *done++ }, nil)
	t.Cleanup(w.close)
	return w, done
}

// TestAwaitWallLeavesTimerStopped: every way out of the wall-clock wait — a
// completion already there, one arriving while the loop is parked, an arrival
// coming due inside and beyond the spin horizon, the stall timeout — returns
// what await's contract says, never before the time it was asked to wait out,
// and leaves the sink's reusable arrival timer stopped: a fire left behind
// would cut the next arrival wait short.
func TestAwaitWallLeavesTimerStopped(t *testing.T) {
	const far = time.Hour // a stall timeout that never expires
	for _, tc := range []struct {
		name       string
		ready      int           // completions already in the sink on entry
		sendAfter  time.Duration // or one arrives this much later
		until      time.Duration // the pending arrival; negative = none
		stall      time.Duration
		want       bool
		handled    int
		atLeastFor time.Duration
	}{
		{name: "completion ready", ready: 1, until: -1, stall: far, want: true, handled: 1},
		{name: "completion during sleep", sendAfter: 5 * time.Millisecond, until: -1, stall: far, want: true, handled: 1, atLeastFor: 5 * time.Millisecond},
		{name: "completion ready, arrival overdue", ready: 3, until: 0, stall: far, want: true, handled: 3},
		{name: "arrival overdue", until: 0, stall: far, want: true},
		{name: "arrival inside the horizon", until: 300 * time.Microsecond, stall: far, want: true, atLeastFor: 300 * time.Microsecond},
		{name: "arrival beyond the horizon", until: 4 * time.Millisecond, stall: far, want: true, atLeastFor: 4 * time.Millisecond},
		{name: "stall", until: -1, stall: 3 * time.Millisecond, want: false, atLeastFor: 3 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, handled := silentWall(t, tc.stall, far, nil)
			for i := 0; i < tc.ready; i++ {
				w.sink.Put(0, rt.OpDone{DoneNs: w.now()})
			}
			if tc.sendAfter > 0 {
				go func() {
					time.Sleep(tc.sendAfter)
					w.sink.Put(0, rt.OpDone{DoneNs: w.now()})
				}()
			}
			until := int64(tc.until)
			if until >= 0 {
				until += w.now()
			}
			t0 := time.Now()
			got, err := w.await(until)
			if elapsed := time.Since(t0); err != nil || got != tc.want || *handled != tc.handled || elapsed < tc.atLeastFor {
				t.Fatalf("await = %v, %v after %v with %d completions handled, want %v after at least %v with %d",
					got, err, elapsed, *handled, tc.want, tc.atLeastFor, tc.handled)
			}
			const next = 2 * time.Millisecond
			t0 = time.Now()
			if got, _ := w.await(w.now() + int64(next)); !got || time.Since(t0) < next || *handled != tc.handled {
				t.Fatalf("the next arrival wait returned %v after %v with %d handled, want true after %v with %d",
					got, time.Since(t0), *handled, next, tc.handled)
			}
		})
	}
}

// TestWallStallWatchdog: stall detection lives in the sink's watchdog, off
// the per-completion path, and keeps await's timeouts. A silent runtime is
// reported no earlier than the stall timeout and within a small slop of it,
// measured from the loop's last sign of life; completions arriving steadily,
// each well inside the timeout, never trip it however long they go on; and a
// fault firing mid-run shortens the timeout from wallStall to WedgeIdle.
func TestWallStallWatchdog(t *testing.T) {
	const slop = 250 * time.Millisecond // a loaded CI box delays a timer callback
	// awaitStall drives await until it reports a stall and checks when: the
	// last sign of life fell between lifeFrom and lifeTo.
	awaitStall := func(t *testing.T, w *wallRuntime, lifeFrom, lifeTo time.Time, timeout time.Duration) {
		t.Helper()
		for {
			ok, err := w.await(-1)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if early, late := time.Since(lifeFrom), time.Since(lifeTo); early < timeout || late > timeout+slop {
			t.Fatalf("stall reported %v–%v after the last sign of life, want %v and at most %v more", late, early, timeout, slop)
		}
	}

	t.Run("silent", func(t *testing.T) {
		const stall = 40 * time.Millisecond
		before := time.Now()
		w, _ := silentWall(t, stall, time.Hour, nil)
		awaitStall(t, w, before, time.Now(), stall)
	})

	t.Run("steady completions", func(t *testing.T) {
		const stall, beats, gap = 100 * time.Millisecond, 60, 5 * time.Millisecond
		w, handled := silentWall(t, stall, time.Hour, nil)
		var widest atomic.Int64 // the longest the producer went between two completions
		last := make(chan [2]time.Time, 1)
		go func() {
			before := time.Now()
			for i := 0; i < beats; i++ {
				time.Sleep(gap)
				widest.Store(max(widest.Load(), int64(time.Since(before))))
				before = time.Now()
				w.sink.Put(0, rt.OpDone{DoneNs: w.now()})
			}
			last <- [2]time.Time{before, time.Now()}
		}()
		// beats × gap is several stall timeouts: only the silence after the
		// last completion may be reported.
		for *handled < beats {
			if ok, _ := w.await(-1); !ok {
				early := *handled
				<-last
				if quiet := time.Duration(widest.Load()); quiet < stall/2 {
					t.Fatalf("stall reported after %d of %d completions at most %v apart", early, beats, quiet)
				}
				t.Skipf("the machine held the producer itself up for %v", time.Duration(widest.Load()))
			}
		}
		l := <-last
		awaitStall(t, w, l[0], l[1], stall)
	})

	t.Run("fault switches to WedgeIdle", func(t *testing.T) {
		const wedgeIdle = 40 * time.Millisecond
		// Processor 2's first send — its request to the holder — is lost.
		w, handled := silentWall(t, time.Hour, wedgeIdle, &sim.FaultPlan{DropNth: []sim.NthRule{{Proc: 2, Every: 1}}})
		before := time.Now()
		w.start(w.now(), 0, 1) // the holder's own increment: no message, completes
		if ok, _ := w.await(-1); !ok || *handled != 1 {
			t.Fatalf("await = %v with %d handled before any fault", ok, *handled)
		}
		w.start(w.now(), 0, 2)
		for !w.r.FaultFired() {
			runtime.Gosched()
		}
		awaitStall(t, w, before, time.Now(), wedgeIdle)
		if *handled != 1 {
			t.Fatalf("%d completions, want the wedged operation to stay open", *handled)
		}
	})
}

// TestReuseRejected: all three entry points refuse a substrate that has
// already run, with an error. The rt-backed service is the regression case:
// its first run closes the shard runtimes, and before the shared freshness
// check a second RunKeyed panicked with "rt: Start after Close".
func TestReuseRejected(t *testing.T) {
	for _, c := range matrixCells() {
		t.Run(c.name, func(t *testing.T) {
			run := c.build(t)
			if _, err := run(Config{}); err != nil {
				t.Fatalf("first run: %v", err)
			}
			if _, err := run(Config{}); err == nil {
				t.Fatal("reused substrate accepted")
			}
		})
	}
}

// TestSingleCounterIsOneKeyService pins the claim the substrate interface
// rests on: a single counter is the degenerate 1-key, 1-shard, always-open
// service. The same seeded scenario through Run on central and through
// RunKeyed on a 1-key/1-shard central service yields the same report.
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
