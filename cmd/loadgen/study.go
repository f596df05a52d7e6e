package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"distcount/internal/engine"
	"distcount/internal/engine/report"
	"distcount/internal/registry"
	"distcount/internal/workload"
)

// Every -sweep and -study invocation is the same experiment shape: a grid
// of cells, one engine run per cell, a digest of the resulting rows, one
// rendered document and a gated exit status. runStudy is that shape; a
// study is the part that differs.

// cell is one grid coordinate: the algorithm and scenario to run, and the
// full options to run them with (a grid function copies the study's options
// and changes what the cell varies). A cell's position in the grid is its
// output slot, so parallel execution keeps row order deterministic.
type cell struct {
	algo, scen string
	opt        options
	// role names what the cell measures, for digests that read different
	// metrics off different cells (regression.go).
	role string
	// calibrate asks for the cell's ramp to be bracketed around a closed-loop
	// probe's throughput before it is swept; probe is what the probe measured
	// (simvsreal.go); 0 = uncalibrated.
	calibrate bool
	probe     float64
}

// wall reports whether the cell measures wall-clock time on this machine's
// cores rather than simulated ticks.
func (c *cell) wall() bool { return c.opt.backend == "rt" }

// study is one row of the table below.
type study struct {
	// name is the -study value ("" for the -sweep row) and about its line
	// of flag help.
	name, about string
	// loop is the admission mode a named study pins (-sweep follows -mode).
	loop engine.Mode
	// reads lists the flags the study's output depends on, beyond
	// commonFlags. Any other explicitly set flag is rejected.
	reads string
	// defaults are "flag=value" pairs given to flags not set explicitly
	// (a later pair wins). A flag that is not in reads is thereby pinned.
	defaults string
	// grid lays out the cells from the options and the parsed -algos, -ns
	// and -windows lists.
	grid func(opt options, algos []string, ns, windows []int) ([]cell, error)
	// digest turns the rows (one per cell, in cell order) into the study's
	// document and verdict.
	digest func(opt options, cells []cell, rows []report.SweepRow) (document, error)
}

// commonFlags are read by every grid: what to run, how to present it, and
// the knobs no study pins. -baseline and -artifacts have their own checks
// in run.
const commonFlags = "sweep study format mode parallel seed ops window cpuprofile memprofile baseline artifacts"

// keyedFlags select the sharded service layer; they configure single runs.
const keyedFlags = "keys key-dist key-zipf-s shards shard-algo migrate"

// gridFlags only mean something to a grid; a single run rejects them.
const gridFlags = "algos scenarios windows gaps ns parallel"

// listed reports whether name is in a space-separated flag list.
func listed(list, name string) bool { return slices.Contains(strings.Fields(list), name) }

// rampDefaults are the saturating defaults of the open-loop ramp studies.
// Without a per-message cost nothing ever saturates (the paper's pure
// latency model) and the studies are about the knee, so -service defaults
// on. The ramp ends at 8 ops/tick, above workload.DefaultRateTo, because
// the token ring batches queued requests per token visit and saturates
// near 6 ops/tick at small n — a ramp that never crosses it could not
// classify it. 4000 ops populate the late (high-rate) buckets well enough
// for a stable p99 at every n (2000 leaves the large-n token ring
// unresolved), and 48 buckets refine the engine's 16: a knee is only
// resolvable to one bucket's rate band, and the fits want bands narrow
// relative to the knee differences they compare.
const rampDefaults = " ops=4000 service=1 rate-to=8 knee-buckets=48"

// studies is the table: the one place that lists the packaged experiments.
// What each measures and concludes is in docs/EXPERIMENTS.md.
var studies = []study{
	{
		// §4: whose knee moves with n, and whose only with the window.
		name:  "scaling",
		about: "runs the knee-vs-n study (open-loop ramprate over -algos x -ns, plus a merge-window sub-sweep at the largest n) with per-algorithm scaling verdicts",
		loop:  engine.Open,
		reads: "algos ns windows queue-cap warmup mean-gap service service-dist epsilon knee-buckets verify rate-from rate-to",
		// The default scope is everything.
		defaults: "algos=all ns=8,16,32,64 windows=1,4,64" + rampDefaults,
		grid:     scalingGrid,
		digest: func(opt options, _ []cell, rows []report.SweepRow) (document, error) {
			return render(report.AnalyzeScaling(rows, opt.window), report.WriteScalingCSV, report.RenderScaling, report.WriteScalingJSON), nil
		},
	},
	{
		// §6. The grid is pinned so a committed baseline and a later check
		// are always the same experiment; the knobs that are free are
		// recorded in the baseline and diffed as config. -mean-gap and
		// -warmup stay pinned too: the first feeds the ramp's derived
		// starting rate and the second the measure window, and neither is
		// recorded. The default scope is every exact algorithm: the
		// committed fingerprints assert exact value assignment, which the
		// ε-approximate family deliberately trades away (-study accuracy
		// covers those).
		name:     "regression",
		about:    "measures each algorithm's multi-metric performance fingerprint (knee, sub-knee latency, messages/op, bottleneck share, queue-cap, heterogeneous-service, straggler and fault knees, scaling class) for the -baseline gate",
		loop:     engine.Open,
		reads:    "algos service epsilon knee-buckets rate-to",
		defaults: "algos=" + strings.Join(registry.ExactNames(), ",") + rampDefaults,
		grid:     regressionGrid,
		digest:   regressionDigest,
	},
	{
		// §8. The comparison is only meaningful under the uniform service
		// model both backends share, and windows stay at the base value so
		// sim and rt cells are the identical protocol configuration. The
		// default scope is one representative per capacity class (the
		// paper's central bottleneck, a request-merging scheme, a quorum
		// scheme) at one hardware-friendly size: rt cells serve their
		// processors from one worker per real core, so n far above the core
		// count measures the run queue more than the algorithm.
		name:     "simvsreal",
		about:    "runs the same ramprate grid on the sim and rt backends, reporting where the simulator's knee predicts the hardware knee",
		loop:     engine.Open,
		reads:    "algos ns inflight warmup mean-gap service epsilon knee-buckets verify rate-to sample",
		defaults: "algos=central,combining,quorum-majority ns=8" + rampDefaults,
		grid:     simVsRealGrid,
		digest:   simVsRealDigest,
	},
	{
		// §9: every algorithm on the ramp at a fixed n under a ladder of
		// fault plans, verification on in every cell — where does each
		// knee move, and does any scheme ever fail silently (a violation
		// not attributable to an injected fault fails the gate). n=16 gives
		// the quorum and tree schemes real structure to lose processors
		// from and keeps the full grid a seconds-scale run. The default
		// scope is every exact algorithm: the fault anomaly accounting
		// (lost/duplicated values) presumes exact value assignment.
		name:     "faults",
		about:    "runs every algorithm on the ramp under a fixed fault-plan ladder (none, loss low/high, duplication, crash, churn), verified, one sweep row per cell",
		loop:     engine.Open,
		reads:    "algos warmup mean-gap service epsilon knee-buckets rate-to sample",
		defaults: "algos=" + strings.Join(registry.ExactNames(), ",") + rampDefaults + " n=16 verify=true",
		grid: func(opt options, algos []string, _, _ []int) ([]cell, error) {
			var cells []cell
			for _, algo := range algos {
				for _, spec := range faultStudyPlans {
					c := opt
					c.faults = spec
					cells = append(cells, cell{algo: algo, scen: "ramprate", opt: c})
				}
			}
			return cells, nil
		},
		digest: sweepDigest,
	},
	{
		// §11: the service-layer form of the paper's tradeoff. The central
		// counter is the low-latency scheme until one key's traffic
		// saturates its single server, the counting network has no single
		// bottleneck but taxes every key with its balancer-depth latency,
		// and adaptive placement tries to buy both. One admission window of
		// 32 operations feeds 64 keys hashed over 4 home shards of 64
		// processors each. Two knobs carry the experiment: service cost 3
		// puts a central server's capacity (≈1/(2·cost) ops/tick) above a
		// uniform ladder point's per-shard traffic but below a zipf-hot
		// shard's, so only skewed runs cross the knee; and the initiator
		// pool is twice the admission window, so the closed loop's
		// head-of-line admission (one op per initiator, arrival order) is
		// not collision-bound even while slow hot-key ops hold initiators.
		name:     "skew",
		about:    "runs the keyed closed-loop grid over zipf exponents comparing static shard assignments against adaptive hot-key migration, with a verdict per skew level",
		loop:     engine.Closed,
		reads:    "sample",
		defaults: "ops=4000 n=64 inflight=32 mean-gap=1 service=3 verify=true keys=64 key-dist=zipf shards=4",
		grid: func(opt options, _ []string, _, _ []int) ([]cell, error) {
			var cells []cell
			for _, s := range skewStudyExponents {
				for _, a := range skewStudyAssignments {
					c := opt
					c.keyZipfS, c.shardAlgo, c.migrate = s, a.shardAlgo, a.migrate
					cells = append(cells, cell{algo: a.shardAlgo, scen: "uniform", opt: c})
				}
			}
			return cells, nil
		},
		digest: func(_ options, _ []cell, rows []report.SweepRow) (document, error) {
			a := report.AnalyzeSkew(rows)
			return analysisDoc(a, report.RenderSkew(a), rows), nil
		},
	},
	{
		// §12: the paper proves every exact counter pays an Ω(k) message
		// bottleneck; this measures the other side of that coin — how much
		// throughput a bounded relative error buys back, and that the
		// claimed bound holds under concurrent overload (exact cells verify
		// against their exact guarantee, approximate cells against the ε
		// bracket). n=16 is small enough that the exact schemes saturate
		// within the ramp. The approximate algorithms run an exact warmup
		// phase (⌈4n/ε⌉ operations — 1281 for gxu-threshold's default
		// ε=0.05) during which they are as bottlenecked as the central
		// counter; the ramp must still be below the exact knee (≈1
		// op/tick) when it ends, or the measured knee is the warmup's: at
		// 16000 ops the ramp to 8 crosses 1 op/tick around operation 2000.
		name:     "accuracy",
		about:    "runs the exact-vs-approximate ramp (exact references plus every ε-approximate algorithm over an ε ladder, verification on) and reports the measured price of exactness",
		loop:     engine.Open,
		reads:    "knee-buckets rate-to sample",
		defaults: rampDefaults + " ops=16000 n=16 verify=true",
		grid: func(opt options, _ []string, _, _ []int) ([]cell, error) {
			var cells []cell
			for _, algo := range accuracyExactRefs {
				cells = append(cells, cell{algo: algo, scen: "ramprate", opt: opt})
			}
			for _, algo := range registry.ApproximateNames() {
				for _, eps := range accuracyEpsilons {
					c := opt
					c.epsilon = eps
					cells = append(cells, cell{algo: algo, scen: "ramprate", opt: c})
				}
			}
			return cells, nil
		},
		// Beyond the per-cell verification gate, the study fails when the
		// verdict itself does — each approximate algorithm at its default
		// ε must sustain report.AccuracyTarget times the best exact knee.
		digest: func(_ options, _ []cell, rows []report.SweepRow) (document, error) {
			defaults := map[string]float64{}
			for _, algo := range registry.ApproximateNames() {
				defaults[algo], _ = registry.DefaultEpsilon(algo)
			}
			a := report.AnalyzeAccuracy(rows, defaults)
			doc := analysisDoc(a, report.RenderAccuracy(a), rows)
			if !a.Pass {
				doc.verdict = fmt.Errorf("accuracy study verdict failed: %s", a.Verdict)
			}
			return doc, nil
		},
	},
}

// sweepGrid is the -sweep row: the -algos x -scenarios x -windows x -gaps x
// -ns grid, every run knob free, merged into one row per run.
var sweepGrid = study{
	reads: "n backend inflight queue-cap warmup mean-gap service service-dist sample epsilon knee-buckets verify faults " +
		"zipf-s hot-frac hot-prob burst-len rate-from rate-to algos scenarios windows gaps ns",
	grid: func(opt options, algos []string, ns, windows []int) ([]cell, error) {
		scens := splitList(opt.scenarios)
		if len(scens) == 1 && scens[0] == "all" {
			scens = workload.Names()
		}
		if len(scens) == 0 {
			return nil, fmt.Errorf("-sweep needs a non-empty -scenarios")
		}
		if opt.mode == engine.Open {
			// Open loop has no admission window: one pass per (algo,
			// scenario, gap, n) cell.
			if opt.windows != "" {
				return nil, fmt.Errorf("-windows only applies to closed-loop sweeps (open loop has no admission window)")
			}
			windows = windows[:1]
		}
		gaps, err := parseInts(opt.gaps, "-gaps", int(opt.meanGap))
		if err != nil {
			return nil, err
		}
		var cells []cell
		for _, algo := range algos {
			for _, scen := range scens {
				for _, window := range windows {
					for _, gap := range gaps {
						for _, n := range ns {
							c := opt
							c.inflight, c.meanGap, c.n = window, int64(gap), n
							cells = append(cells, cell{algo: algo, scen: scen, opt: c})
						}
					}
				}
			}
		}
		return cells, nil
	},
	digest: sweepDigest,
}

// faultStudyPlans is the fault ladder, one cell per algorithm per entry.
// Each spec is a valid -faults value (the same string labels the row in
// every output format, so any cell is reproducible as a single run). The
// crash hits processor 1 — an initiator on every algorithm — a quarter of
// the way into a default-length ramp; the churn period is chosen so a
// default ramp (~1000 ticks) crosses several rotation cycles.
var faultStudyPlans = []string{
	"",
	"loss:0.005",
	"loss:0.05",
	"dup:0.02",
	"crash:1@t=500",
	"churn:2@every=400/down=100",
}

// skewMigrateSpec tunes the adaptive policy's detector: over 64
// zipf-distributed keys the hottest key draws ≈29% of completions at s=1.2
// and ≈17% at s=0.9, so a 0.25 share threshold fires exactly on the
// ladder's saturating points (the default 0.5 would never fire).
const skewMigrateSpec = "cnet@hot=0.25/every=256"

// skewStudyExponents is the skew ladder, spanning near-uniform to a regime
// where the hottest key alone exceeds a central server's capacity.
var skewStudyExponents = []float64{0.6, 0.9, 1.2, 1.5}

// skewStudyAssignments are the compared policies, one cell per exponent
// each: every home shard central, every home shard a counting network, and
// adaptive (central homes plus hot-key migration to a dedicated
// counting-network shard).
var skewStudyAssignments = []struct{ shardAlgo, migrate string }{
	{"central", ""},
	{"cnet", ""},
	{"central", skewMigrateSpec},
}

// accuracyExactRefs are the exact reference algorithms the approximate
// family is measured against; they span the paper's design space: the
// latency-optimal central counter, the bottleneck-free counting network,
// and the request-merging combining tree.
var accuracyExactRefs = []string{"central", "cnet", "combining"}

// accuracyEpsilons is the claimed-error ladder every approximate algorithm
// runs at. It contains each algorithm's default claim (0.05 for
// gxu-threshold, 0.25 for css-sample), so the verdict's default-ε cells
// are always present.
var accuracyEpsilons = []float64{0.05, 0.1, 0.25}

// findStudy returns the table row of a -study value, nil if there is none.
func findStudy(name string) *study {
	for i := range studies {
		if studies[i].name == name {
			return &studies[i]
		}
	}
	return nil
}

// studyNames lists the table's names, for the unknown-study error.
func studyNames() []string {
	names := make([]string, len(studies))
	for i, st := range studies {
		names[i] = st.name
	}
	return names
}

// studyHelp is the -study flag help: one clause per table row.
func studyHelp() string {
	clauses := make([]string, len(studies))
	for i, st := range studies {
		clauses[i] = fmt.Sprintf("%q %s", st.name, st.about)
	}
	return strings.Join(clauses, "; ")
}

// kind is "sweep" for the -sweep row and "study" for a named one; flagName
// is how the row is selected on the command line.
func (st *study) kind() string {
	if st.name == "" {
		return "sweep"
	}
	return "study"
}

func (st *study) flagName() string { return strings.TrimSpace("-" + st.kind() + " " + st.name) }

// admit rejects every explicitly set flag (set, in name order) the study
// does not read, pins its loop mode, and gives the flags left unset the
// study's defaults.
func (st *study) admit(fs *flag.FlagSet, set []string, opt *options) error {
	for _, name := range set {
		switch {
		case listed(commonFlags+" "+st.reads, name):
		case listed(keyedFlags, name):
			return fmt.Errorf("-%s does not compose with %s (the keyed flags configure single runs; -study skew pins its own)", name, st.flagName())
		default:
			return fmt.Errorf("-%s is ignored by %s (it pins or derives that part of its grid)", name, st.flagName())
		}
	}
	if st.name != "" {
		if slices.Contains(set, "mode") && opt.mode != st.loop {
			return fmt.Errorf("%s is %s-loop experiment; drop -mode %s", st.flagName(),
				map[engine.Mode]string{engine.Open: "an open", engine.Closed: "a closed"}[st.loop], opt.mode)
		}
		opt.mode = st.loop
	}
	for _, pair := range strings.Fields(st.defaults) {
		name, value, _ := strings.Cut(pair, "=")
		if slices.Contains(set, name) {
			continue
		}
		if err := fs.Set(name, value); err != nil {
			panic(fmt.Sprintf("study table: %s default %s: %v", st.flagName(), pair, err))
		}
	}
	return nil
}

// runStudy is the one grid runner: lay out the study's cells, run them —
// each cell owning an independent counter and network — digest the rows,
// write the document, and gate the exit status.
// A cell that fails is reported as a skipped row with its reason, never
// silently dropped; the run itself errors only when no cell at all could
// run.
func runStudy(out io.Writer, st *study, opt options) error {
	algos := expandAlgos(opt.algos)
	if len(algos) == 0 {
		return fmt.Errorf("%s needs a non-empty -algos", st.flagName())
	}
	ns, err := parseInts(opt.ns, "-ns", opt.n)
	if err != nil {
		return err
	}
	windows, err := parseInts(opt.windows, "-windows", opt.inflight)
	if err != nil {
		return err
	}
	cells, err := st.grid(opt, algos, ns, windows)
	if err != nil {
		return err
	}
	rows, err := runCells(cells, opt.parallel)
	if err != nil {
		return fmt.Errorf("%s: %w", st.kind(), err)
	}
	doc, err := st.digest(opt, cells, rows)
	if err != nil {
		return err
	}
	if err := emit(out, opt.format, doc); err != nil {
		return err
	}
	if err := gateRows(rows); err != nil {
		return err
	}
	return doc.verdict
}

// sweepDigest is the digest of the grids whose document is the rows
// themselves.
func sweepDigest(_ options, _ []cell, rows []report.SweepRow) (document, error) {
	return render(rows, report.WriteSweepCSV, report.RenderSweep, report.WriteSweepJSON), nil
}

// analysisDoc is the document of a study that digests sweep rows into an
// analysis: the rows as CSV, the rendered analysis as text, both as JSON.
func analysisDoc(analysis any, text string, rows []report.SweepRow) document {
	return document{
		csv:  func(w io.Writer) error { return report.WriteSweepCSV(w, rows) },
		text: func() string { return text },
		json: func(w io.Writer) error {
			return writeJSON(w, struct {
				Analysis any               `json:"analysis"`
				Rows     []report.SweepRow `json:"rows"`
			}{analysis, rows})
		},
	}
}

// scalingGrid is every algorithm over the n axis at the base merge window,
// then the window axis at the largest n for the request-merging schemes.
func scalingGrid(opt options, algos []string, ns, windows []int) ([]cell, error) {
	var cells []cell
	for _, algo := range algos {
		cells = append(cells, sizeAxis(opt, algo, ns)...)
	}
	for _, algo := range algos {
		cells = append(cells, windowAxis(opt, algo, slices.Max(ns), windows)...)
	}
	return cells, nil
}

// sizeAxis returns one ramprate cell per distinct network the algorithm
// builds over ns. Structured algorithms round n up, so several requested
// sizes can collapse onto one actual size (ctree builds 81 processors for
// any request in (27,81]); deduplicating keeps one cell — and one fit
// point — per distinct network.
func sizeAxis(opt options, algo string, ns []int) []cell {
	var cells []cell
	seen := map[int]bool{}
	for _, n := range ns {
		if size := actualSize(algo, n); !seen[size] {
			seen[size] = true
			c := opt
			c.n = n
			cells = append(cells, cell{algo: algo, scen: "ramprate", opt: c})
		}
	}
	return cells
}

// windowAxis returns a request-merging algorithm's merge-window sub-sweep
// at n: one ramprate cell per window, ascending, without the base window
// (the size axis already measured it). Other algorithms have none.
func windowAxis(opt options, algo string, n int, windows []int) []cell {
	if !registry.WindowSensitive(algo) {
		return nil
	}
	windows = slices.Clone(windows)
	slices.Sort(windows)
	var cells []cell
	for _, w := range windows {
		if int64(w) != opt.window {
			c := opt
			c.n, c.window = n, int64(w)
			cells = append(cells, cell{algo: algo, scen: "ramprate", opt: c})
		}
	}
	return cells
}

// actualSize resolves the network size the algorithm actually builds for a
// requested n (construction is cheap — no simulation runs). A construction
// panic is deferred to the measuring cell, which reports it as a skipped
// row; here it just leaves the requested size in place.
func actualSize(algo string, n int) (size int) {
	size = n
	defer func() { recover() }()
	c, err := registry.NewWith(algo, n, registry.Concurrent())
	if err == nil {
		size = c.N()
	}
	return size
}

// runCells runs the cells and returns one row per cell in cell order.
// Simulator cells are spread over a pool of parallel workers, which is
// indistinguishable from running them serially. Wall-clock cells measure
// this machine's cores, and two of them running together would measure each
// other: they run one at a time, after the pool has drained, whatever
// parallel says. A grid where no cell at all could run is an error (single
// failed cells are reported as skipped rows instead).
func runCells(cells []cell, parallel int) ([]report.SweepRow, error) {
	rows := make([]report.SweepRow, len(cells))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i := range cells {
		if cells[i].wall() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i] = runCell(&cells[i])
		}()
	}
	wg.Wait()
	for i := range cells {
		if cells[i].wall() {
			rows[i] = runCell(&cells[i])
		}
	}

	skipped := 0
	for _, r := range rows {
		if r.Skipped != "" {
			skipped++
		}
	}
	if len(rows) > 0 && skipped == len(rows) {
		return nil, fmt.Errorf("all %d cells failed; first: %s/%s: %s",
			len(rows), rows[0].Algorithm, rows[0].Scenario, rows[0].Skipped)
	}
	return rows, nil
}

// runCell executes one cell (calibrating it first when it asks for that) and
// stamps the grid coordinates engine.Result does not record. Any error —
// including a protocol panic, so one broken cell cannot take down the whole
// grid — becomes a skipped row that keeps the cell's coordinates.
func runCell(c *cell) (row report.SweepRow) {
	o := &c.opt
	stamp := func(row report.SweepRow) report.SweepRow {
		row.ServiceDist = distLabel(o.service, o.svcDist)
		if o.backend == "rt" {
			row.Backend = "rt"
		}
		row.FaultSpec = o.faults
		if o.keyed() {
			row.KeyDist, row.KeyZipfS, row.ShardAlgo = o.keyDist, o.keyZipfS, o.shardAlgo
			row.Migrate = migrateTarget(o.migrate)
		}
		return row
	}
	skip := func(reason error) report.SweepRow {
		return stamp(report.SkippedRow(c.algo, c.scen, o.mode, o.n, o.inflight, o.meanGap, o.service, o.window, reason))
	}
	defer func() {
		if r := recover(); r != nil {
			row = skip(fmt.Errorf("panic: %v", r))
		}
	}()
	if c.calibrate {
		calibrateRamp(c)
	}
	res, err := runOne(*o, c.algo, c.scen)
	if err != nil {
		return skip(err)
	}
	return stamp(report.SweepRow{MeanGap: o.meanGap, MergeWindow: o.window, ServiceTime: o.service, Result: res})
}

// gateRows is the exit-status contract of sweeps and studies: after the
// report has rendered, any skipped cell or verification violation still
// fails the process, so CI can gate on the exit code instead of grepping
// the output.
func gateRows(rows []report.SweepRow) error {
	skipped, violations := 0, 0
	var first string
	for _, r := range rows {
		if r.Skipped != "" {
			skipped++
			if first == "" {
				first = fmt.Sprintf("%s/%s n=%d: %s", r.Algorithm, r.Scenario, r.N, r.Skipped)
			}
		}
		if v := r.Verification; v != nil && v.Violations > 0 {
			violations += v.Violations
			if first == "" {
				first = fmt.Sprintf("%s/%s n=%d: %d %s violations", r.Algorithm, r.Scenario, r.N, v.Violations, v.Property)
			}
		}
	}
	switch {
	case skipped > 0 && violations > 0:
		return fmt.Errorf("%d of %d cells skipped and %d verification violations (first: %s)",
			skipped, len(rows), violations, first)
	case skipped > 0:
		return fmt.Errorf("%d of %d cells skipped (first: %s)", skipped, len(rows), first)
	case violations > 0:
		return fmt.Errorf("verification failed: %d violations (first: %s)", violations, first)
	}
	return nil
}
