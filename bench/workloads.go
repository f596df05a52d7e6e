package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/engine"
	"distcount/internal/registry"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// defaultScale shrinks every workload's op count together. The counts in
// the workload table are the sizes at scale 1 (about 1.1-1.5 s of engine
// time per repetition on the 2-core reference box); the frozen scale keeps
// a repetition near 0.3 s so that a run of -seconds holds enough
// repetitions for a steady median. Result files record the scale, and
// -compare refuses to compare across scales.
const defaultScale = 0.25

// rtMergeWindow is the merge window, in ticks of 1 µs, of the rt_closed_combining
// cell and of the After probe that explains it. It is not the registry's
// default of 16: Go parks its last idle thread in epoll_wait, whose timeout
// is whole milliseconds, so a timer shorter than 1 ms fires after about
// 1.1 ms — unless it is already due when the scheduler gets there, in which
// case it fires at once. A 16 µs timer sits on that edge (the idle path takes
// 15-80 µs on this box), and which side it falls on follows the state the
// host was left in by whatever ran before: the same code ran at 1300 or at
// 2300 ops/s. 256 µs is clear of the edge, so every merge window costs the
// millisecond and the figure repeats; the lift ROADMAP item 4(d) is after
// (windows that cost what they ask for) stays as visible.
const rtMergeWindow = 256

// minOps keeps a scaled-down cell long enough to leave a measure window
// after the ops/10 warm-up (the unit tests run at scale 0.005).
const minOps = 40

// cell is one engine run inside a repetition.
type cell struct {
	algo string
	n    int
	ops  int // at scale 1
	// inFlight is the closed-loop window; rt cells use one client per
	// processor instead (callers that wait for their reply).
	inFlight int
	open     bool  // open loop over a ramprate sweep, knee detection on
	service  int64 // receiver-side service time in ticks
	verify   bool
	rt       bool // goroutine-per-processor backend, driven by RunWall
	keyed    bool // 64 keys over 4 shards plus a hot-key migration
	// window is the merge window of a combining cell in ticks; 0 keeps
	// registry.DefaultWindow.
	window int64
}

// workloadSpec is one benchmark workload: a list of engine cells, or (nil
// cells) the five packaged studies run through the loadgen binary.
type workloadSpec struct {
	name, why string
	cells     []cell
}

// workloads fixes the seven workloads. Sizes are op counts, not durations,
// so simulated statistics repeat exactly for a fixed seed.
var workloads = []workloadSpec{
	{
		name: wSimClosedCentral,
		why:  "2 msgs and 3 events per op: sim event loop, closed driver and generator are nearly the whole cost; bypass for protocol work",
		cells: []cell{
			{algo: "central", n: 64, ops: 2_000_000, inFlight: 16},
		},
	},
	{
		name: wSimClosedProtocols,
		why:  "ctree, combining and quorum-majority cells: protocol handlers, payload boxing and GC dominate, engine per-op work is negligible",
		cells: []cell{
			{algo: "ctree", n: 256, ops: 300_000, inFlight: 16},
			{algo: "combining", n: 64, ops: 250_000, inFlight: 16},
			{algo: "quorum-majority", n: 81, ops: 30_000, inFlight: 16},
		},
	},
	{
		name: wSimOpenVerify,
		why:  "open-loop ramp past the knee with service time 1 and Verify on: open admission, receiver queueing, knee scan and checkers",
		cells: []cell{
			{algo: "central", n: 64, ops: 250_000, open: true, service: 1, verify: true},
			{algo: "ctree", n: 64, ops: 250_000, open: true, service: 1, verify: true},
			{algo: "cnet", n: 64, ops: 250_000, open: true, service: 1, verify: true},
		},
	},
	{
		name: wSvcKeyedSkew,
		why:  "64 zipf keys over 4 central shards with one forced migration to cnet: countersvc routing and the merged multi-network loop",
		cells: []cell{
			{algo: "central", n: 64, ops: 600_000, inFlight: 32, service: 3, verify: true, keyed: true},
		},
	},
	{
		name: wRTClosedCentral,
		why:  "goroutine backend, 8 closed-loop clients on central: mailbox hops and scheduling are the cost, no timers fire",
		cells: []cell{
			{algo: "central", n: 8, ops: 400_000, verify: true, rt: true},
		},
	},
	{
		name: wRTClosedCombining,
		why:  "goroutine backend on combining, 256-tick merge windows riding time.AfterFunc (~1.1 ms each); rt_closed_central is its bypass",
		cells: []cell{
			{algo: "combining", n: 8, ops: 2_500, verify: true, rt: true, window: rtMergeWindow},
		},
	},
	{
		name: wStudies,
		why:  "the five packaged sim studies through the built loadgen binary: grid runner, report digests and the baseline gate on top",
	},
}

// A workload's cells are all of one kind, so its first cell speaks for it.
func (w workloadSpec) studies() bool { return w.cells == nil }
func (w workloadSpec) rt() bool      { return !w.studies() && w.cells[0].rt }
func (w workloadSpec) open() bool    { return !w.studies() && w.cells[0].open }
func (w workloadSpec) keyed() bool   { return !w.studies() && w.cells[0].keyed }

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled is a cell's op count at the given scale.
func scaled(ops int, scale float64) int {
	if n := int(float64(ops) * scale); n > minOps {
		return n
	}
	return minOps
}

// timedGen is the timing decorator around workload.Generator.Next. It
// forwards Len so the engine sizes its buffers as it does untraced.
type timedGen struct {
	workload.Generator
	length int
	busy   time.Duration
	calls  int64
}

func (g *timedGen) Next() (workload.Request, bool) {
	t0 := time.Now()
	req, ok := g.Generator.Next()
	g.busy += time.Since(t0)
	g.calls++
	return req, ok
}

func (g *timedGen) Len() int { return g.length }

// clockOverhead is what one time.Now/time.Since pair adds to the interval
// it measures; the generator decorator's per-call figure is corrected by it.
func clockOverhead() time.Duration {
	const pairs = 200_000
	var d time.Duration
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		d += time.Since(t0)
	}
	return d / pairs
}

// cellResult is what one engine run produced and cost.
type cellResult struct {
	algo string
	res  *engine.Result
	run  time.Duration // the engine.Run / RunKeyed / RunWall call
	// Construction, per constructor: registry.NewWith, countersvc.New,
	// workload.New.
	newCounter, newSvc, newGen time.Duration
	// Traced repetitions only.
	mallocs, bytes uint64
	genBusy        time.Duration
	genCalls       int64
}

// repResult is one repetition of a workload.
type repResult struct {
	cells     []cellResult
	studies   []time.Duration // per loadgen exec, in studyNames order
	setup     time.Duration   // all construction
	run       time.Duration   // the timed region
	ops       int64           // completed ops; CSV rows for studies
	attempted int64
	failed    int64
	// childRSSKB is the largest resident set of a loadgen child (studies).
	childRSSKB int64
	// digest is the repetition's simulated statistics (the CSVs' hash for
	// studies); repetitions of one seed must agree byte for byte. Empty on
	// the rt workloads, whose timing is real.
	digest string
}

// opsPerS is the repetition's throughput over its timed region.
func (rep *repResult) opsPerS() float64 { return float64(rep.ops) / rep.run.Seconds() }

// each collects one figure per repetition.
func each(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, rep := range reps {
		out[i] = f(rep)
	}
	return out
}

// runner runs one workload's repetitions.
type runner struct {
	cfg  config
	spec workloadSpec
}

// rep runs one repetition. tr is nil on untraced repetitions; verifyOn
// false is the differential repetition that measures what Verify costs.
func (r *runner) rep(tr *tracer, verifyOn bool) (*repResult, error) {
	if r.spec.studies() {
		return r.studiesRep(tr)
	}
	rep := &repResult{}
	digest := sha256.New()
	deterministic := true
	for _, c := range r.spec.cells {
		cr, err := r.runCell(c, tr, verifyOn)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", r.spec.name, c.algo, err)
		}
		rep.cells = append(rep.cells, cr)
		rep.setup += cr.newCounter + cr.newSvc + cr.newGen
		rep.run += cr.run
		res := cr.res
		rep.ops += int64(res.Ops)
		rep.attempted += int64(res.Ops + res.Wedged + res.Unserved)
		rep.failed += int64(res.Wedged + res.Unserved)
		if v := res.Verification; v != nil {
			// Violations already counts missing values.
			rep.failed += int64(v.Violations)
		}
		if c.open && res.Knee == nil {
			return nil, fmt.Errorf("%s/%s: the ramp never reached a knee", r.spec.name, c.algo)
		}
		if c.rt {
			deterministic = false
		} else if err := json.NewEncoder(digest).Encode(simStatistics(res)); err != nil {
			return nil, err
		}
	}
	if deterministic {
		rep.digest = fmt.Sprintf("%x", digest.Sum(nil))
	}
	return rep, nil
}

// simStatistics is the part of a result that must repeat exactly on the
// simulator for a fixed seed.
func simStatistics(res *engine.Result) any {
	return struct {
		Ops, Measured, Dropped int
		Messages, Makespan     int64
		MaxLoad                int64
		Knee                   *engine.Knee
		Migrations             []countersvc.MigrationEvent
		Verification           any
	}{
		res.Ops, res.Measured, res.Dropped, res.Messages, res.SimTime, res.Loads.MaxLoad,
		res.Knee, res.Migrations, res.Verification,
	}
}

func (r *runner) runCell(c cell, tr *tracer, verifyOn bool) (cellResult, error) {
	ops := scaled(c.ops, r.cfg.scale)
	out := cellResult{algo: c.algo}

	var simOpts []sim.Option
	if c.service > 0 {
		simOpts = append(simOpts, sim.WithServiceTime(c.service))
	}
	reg := registry.Concurrent(simOpts...)
	if c.rt {
		reg.Backend = "rt"
	}
	if c.window > 0 {
		reg.Window = c.window
	}
	scenario := "uniform"
	wcfg := workload.Config{Ops: ops, Seed: r.cfg.seed, MeanGap: 1}
	ecfg := engine.Config{InFlight: c.inFlight, Warmup: ops / 10, Ops: ops, Verify: c.verify && verifyOn}
	if c.open {
		// The scaling study's cell shape: gap 4 starts the ramp well below
		// every algorithm's capacity, so the baseline bucket is unloaded.
		scenario, wcfg.MeanGap, wcfg.RateTo = "ramprate", 4, 4
		ecfg.Mode, ecfg.KneeBuckets, ecfg.QueueCap = engine.Open, 48, 4096
	}

	var (
		ctr counter.Async
		svc *countersvc.Service
		gen workload.Generator
		err error
	)
	if c.keyed {
		out.newSvc = tr.timed("countersvc.New", func() {
			svc, err = countersvc.New(countersvc.Config{
				Keys: 64, N: c.n, Shards: 4, Algo: c.algo, Registry: reg,
				Migration: &countersvc.Migration{To: "cnet", HotShare: 0.25, CheckEvery: 256},
			})
		})
		if err != nil {
			return out, err
		}
		wcfg.N, wcfg.Keys, wcfg.KeyDist, wcfg.KeyZipfS = svc.N(), 64, "zipf", 1.2
	} else {
		out.newCounter = tr.timed("registry.NewWith", func() {
			ctr, err = registry.NewWith(c.algo, c.n, reg)
		})
		if err != nil {
			return out, err
		}
		wcfg.N = ctr.N()
		if c.rt {
			ecfg.InFlight = ctr.N()
		}
	}
	out.newGen = tr.timed("workload.New", func() {
		gen, err = workload.New(scenario, wcfg)
	})
	if err != nil {
		return out, err
	}
	var tg *timedGen
	var before, after runtime.MemStats
	if tr != nil {
		tg = &timedGen{Generator: gen, length: ops}
		gen = tg
		runtime.ReadMemStats(&before)
	}

	var span int
	start := time.Now()
	switch {
	case c.keyed:
		span = tr.begin("engine.RunKeyed")
		out.res, err = engine.RunKeyed(svc, gen, ecfg)
	case c.rt:
		span = tr.begin("engine.RunWall")
		out.res, err = engine.RunWall(ctr.(*rt.Runtime), gen, ecfg)
	default:
		span = tr.begin("engine.Run")
		out.res, err = engine.Run(ctr, gen, ecfg)
	}
	out.run = time.Since(start)
	tr.end(span)
	if err != nil {
		return out, err
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
		out.mallocs, out.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		out.genBusy, out.genCalls = tg.busy, tg.calls
		tr.aggregate("workload.Next", span, tg.busy, tg.calls)
	}
	return out, nil
}

// studiesRep runs one pass of the five packaged studies through the built
// loadgen binary, the way a user of the lab types them. The regression
// study checks the committed baseline, which fixes its own seed; the other
// four take the run's seed.
func (r *runner) studiesRep(tr *tracer) (*repResult, error) {
	rep := &repResult{}
	digest := sha256.New()
	for _, study := range studyNames {
		args := []string{"-study", study, "-format", "csv", "-parallel", "2"}
		if study == "regression" {
			args = append(args, "-baseline", "check", r.cfg.baseline)
		} else {
			args = append(args, "-seed", strconv.FormatUint(r.cfg.seed, 10))
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(r.cfg.loadgen, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var err error
		d := tr.timed("exec loadgen -study "+study, func() { err = cmd.Run() })
		if err != nil {
			return nil, fmt.Errorf("loadgen -study %s: %w: %s", study, err, bytes.TrimSpace(stderr.Bytes()))
		}
		rows, bad, err := csvCells(stdout.Bytes())
		if err != nil {
			return nil, fmt.Errorf("loadgen -study %s: %w", study, err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rep.childRSSKB = max(rep.childRSSKB, ru.Maxrss)
		}
		rep.studies = append(rep.studies, d)
		rep.run += d
		rep.ops += rows
		rep.attempted += rows
		rep.failed += bad
		digest.Write(stdout.Bytes())
	}
	rep.digest = fmt.Sprintf("%x", digest.Sum(nil))
	return rep, nil
}

// csvCells counts a study CSV's data rows and how many of them failed: a
// non-empty "skipped" column, or a "status" column that is not "pass".
func csvCells(data []byte) (rows, bad int64, err error) {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return 0, 0, err
	}
	if len(recs) < 2 {
		return 0, 0, fmt.Errorf("study printed no result rows")
	}
	skipped, status := -1, -1
	for i, h := range recs[0] {
		switch h {
		case "skipped":
			skipped = i
		case "status":
			status = i
		}
	}
	for _, rec := range recs[1:] {
		rows++
		if (skipped >= 0 && rec[skipped] != "") || (status >= 0 && rec[status] != "pass") {
			bad++
		}
	}
	return rows, bad, nil
}
