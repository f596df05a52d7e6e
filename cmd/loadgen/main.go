// Command loadgen drives a distributed-counter algorithm with a concurrent
// workload scenario on the simulated network and reports throughput,
// latency percentiles, message loads, and the bottleneck-load trajectory —
// the workload engine's command-line face.
//
// Usage:
//
//	loadgen -algo ctree -scenario zipf -n 256 -ops 5000 -seed 1
//	loadgen -algo central -scenario bursty -n 64 -ops 2000 -format text
//	loadgen -algo central -scenario ramprate -mode open -service 1 -format text
//	loadgen -algo tokenring -scenario uniform -verify -format text
//	loadgen -sweep -algos central,ctree -scenarios uniform,zipf -format csv
//	loadgen -sweep -algos all -scenarios ramprate -mode open -service 1 -format text
//	loadgen -algo quorum-majority -scenario uniform -faults loss:0.01 -verify -format text
//	loadgen -study scaling -format text
//	loadgen -study faults -format text
//	loadgen -study regression -format text -baseline check baselines/default.json
//	loadgen -backend rt -algo central -n 8 -ops 2000 -service 1 -verify -format text
//	loadgen -study simvsreal -format text
//	loadgen -baseline diff old.json new.json
//	loadgen -algo central -keys 1024 -shards 4 -key-zipf-s 1.2 -verify -format text
//	loadgen -keys 64 -shards 4 -shard-algo central -migrate cnet@hot=0.25 -verify -format text
//	loadgen -study skew -format text
//	loadgen -algo gxu-threshold -scenario ramprate -mode open -service 1 -epsilon 0.1 -verify -format text
//	loadgen -study accuracy -format text
//	loadgen -list
//
// The default output is an indented JSON report on stdout; -format text
// renders a human-readable summary, -format csv the bottleneck time
// series. Runs are deterministic for a fixed -seed.
//
// With -mode open the driver admits every request at its scenario arrival
// time regardless of how many operations are in flight (closed loop
// throttles admission to completions instead): a bounded admission queue
// (-queue-cap) absorbs requests whose initiator is busy, queueing delay is
// reported separately from service latency, and a saturation knee is
// detected from per-rate-bucket p99 divergence. Pair it with -service,
// which gives every processor a finite per-message processing cost, to
// observe the paper's message-load bottleneck as a throughput ceiling —
// the "ramprate" scenario sweeps the offered rate through it.
//
// With -verify the engine additionally collects every operation's
// delivered value and checks it against the algorithm's claimed
// consistency guarantee: linearizability for central/ctree/combining,
// quiescent consistency for the counting and diffracting networks,
// duplicate-value accounting for the protocols that are only sequentially
// correct (tokenring, quorum-*), and the ε error bracket for the
// approximate algorithms (gxu-threshold, css-sample) — every value must
// stay within a factor 1±ε of the true count's concurrency bracket.
// -epsilon overrides an approximate algorithm's default claimed bound;
// tightening it makes the protocol synchronize more (and the verifier
// demand more).
//
// With -faults the run executes under a deterministic, seeded
// fault-injection plan — message loss and duplication (probabilistic or
// every-Nth-send), processor crash/recover windows, rotating membership
// churn — on either backend (see internal/sim's fault layer). Lost events
// wedge their operations visibly instead of completing them silently;
// combined with -verify, fault-attributable anomalies are excused and
// measured while a completed operation without a value stays a hard
// violation.
//
// With -backend rt the same protocol state machines run on the rt runtime
// instead of the simulator: a mailbox per processor, drained by one worker
// goroutine per core, one simulated tick of service cost emulated as 1 µs
// of real work, and the report in wall-clock nanoseconds and ops/sec. -service-dist selects a heterogeneous per-processor
// service-cost profile (flat, halfslow, straggler) on top of -service; it
// applies on both backends.
//
// With -keys > 1 (or -shards, -shard-algo, -migrate) the run routes
// through the sharded service layer (internal/countersvc): requests
// additionally draw a key from -key-dist, keys hash onto -shards home
// shards — each an independent counter instance built from -shard-algo —
// and -migrate adds a dedicated hot shard of the given algorithm that a
// detected hot key drains to and cuts over to mid-run. The report gains
// per-key stats, migration events, and a per-shard keyed verification
// that partitions each key's history by routing epoch. -faults composes:
// every shard runs under the plan as given.
//
// -sweep and -study run a grid of such runs instead of one. Every grid is
// one row of the study table in study.go: its name, the loop mode it pins,
// the flags it reads (any other explicitly set flag is rejected — a
// measurement tool must not silently ignore a selection), the defaults it
// gives unset flags, a grid function that copies the options once per cell
// and changes what that cell varies, and a digest function that turns the
// cells' rows into a document with a CSV, a text and a JSON form plus the
// study's verdict. One runner does the rest: simulator cells spread over a
// -parallel worker pool (each owns an independent network; output order
// stays deterministic), wall-clock cells one at a time after them (they
// measure this machine's cores and must not share them), a failed cell is reported as a skipped row with its
// reason instead of aborting the grid, the document is written in the
// selected -format, and the exit status is gated. -sweep is the row whose
// grid is -algos x -scenarios x -windows x -gaps x -ns ("all" expands
// either list; windows apply to closed loop only). Adding a study is one
// row plus its grid and digest. What each study measures, pins and
// concludes is in docs/EXPERIMENTS.md (§4 scaling, §6 regression and the
// -baseline record|check|diff gate with its -artifacts files, §8
// simvsreal, §9 faults, §11 skew, §12 accuracy).
//
// Exit status: non-zero when -verify finds violations, when any
// sweep/study cell is skipped, when a study's verdict fails, or when
// -baseline check finds a metric out of band — gates script against the
// exit code, not output greps.
//
// The special scenario "adversarial" first executes the paper's
// lower-bound adversary against the chosen algorithm (sequentially, on a
// separate traced instance) and then replays the adversary's worst-case
// initiator order through the concurrent engine — the paper's hardest
// workload under load.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"distcount/internal/engine"
	"distcount/internal/engine/report"
	"distcount/internal/registry"
	"distcount/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// options holds the flag values; flags bind straight into it. The first
// block describes one run — a study cell is a copy of the options with the
// fields that cell varies changed — the second the invocation around it.
type options struct {
	mode        engine.Mode
	backend     string // execution backend: "sim" (discrete event) or "rt" (mailboxes on a worker pool, real cores)
	n           int
	ops         int
	seed        uint64
	inflight    int
	queueCap    int
	warmup      int
	meanGap     int64
	service     int64
	svcDist     string // per-processor service-cost distribution (flat/halfslow/straggler)
	sample      int
	window      int64   // combining/diffraction merge window
	epsilon     float64 // approximate-algorithm error bound override (0 = algorithm default)
	kneeBuckets int     // open-loop rate buckets (0 = engine default)
	verify      bool
	faults      string // fault-injection spec (see faults.go); "" = no faults
	keys        int    // keyed mode: independent counter keys (1 = classic single counter)
	keyDist     string // key-popularity distribution (uniform/zipf)
	keyZipfS    float64
	shards      int    // keyed mode: home shards keys hash onto
	shardAlgo   string // home-shard algorithm(s): one name, or one per shard
	migrate     string // hot-key migration spec (see keyed.go); "" = static assignment
	zipfS       float64
	hotFrac     float64
	hotProb     float64
	burstLen    int
	rateFrom    float64
	rateTo      float64

	algo, scenario string // the single run's coordinates
	format         string
	// The -sweep/-study grid axes, unparsed, and the worker pool size.
	algos, scenarios, windows, gaps, ns string
	parallel                            int
	baseline, artifacts                 string
	args                                []string // positional arguments: -baseline file paths
}

// keyed reports whether the options select the sharded service layer
// (countersvc + engine.RunKeyed) instead of a single counter instance.
func (o options) keyed() bool {
	return o.keys > 1 || o.shards > 1 || o.shardAlgo != "" || o.migrate != ""
}

func run(args []string, out io.Writer) error {
	var opt options
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.StringVar(&opt.algo, "algo", "ctree", "algorithm: "+strings.Join(registry.Names(), ", "))
	fs.StringVar(&opt.scenario, "scenario", "uniform", "scenario: "+strings.Join(workload.Names(), ", ")+", adversarial")
	fs.IntVar(&opt.n, "n", 81, "number of processors (rounded up for structured algorithms)")
	fs.IntVar(&opt.ops, "ops", 2000, "number of operations")
	fs.Uint64Var(&opt.seed, "seed", 1, "scenario seed (runs are deterministic per seed)")
	fs.StringVar(&opt.backend, "backend", "sim", "execution backend: sim (discrete-event simulator, ticks) or rt (processor mailboxes drained by one worker per core, wall-clock ns and ops/sec)")
	fs.IntVar(&opt.inflight, "inflight", 8, "closed-loop window: max operations concurrently in flight")
	fs.IntVar(&opt.queueCap, "queue-cap", 4096, "open-loop admission queue bound; overflow is dropped")
	fs.IntVar(&opt.warmup, "warmup", -1, "completions excluded from measurement (default ops/10)")
	fs.Int64Var(&opt.meanGap, "mean-gap", 4, "mean interarrival time in simulated ticks")
	fs.Int64Var(&opt.service, "service", 0, "per-message processing cost in ticks (0 = instantaneous; saturation needs > 0)")
	fs.StringVar(&opt.svcDist, "service-dist", "", "per-processor distribution of -service: flat (uniform, the default), halfslow (every second processor 4x slower), straggler (processor 1 8x slower)")
	fs.IntVar(&opt.sample, "sample", 0, "bottleneck series stride in completions (0 = auto)")
	fs.Int64Var(&opt.window, "window", registry.DefaultWindow, "combining/diffraction merge window in ticks (request-merging algorithms only)")
	fs.Float64Var(&opt.epsilon, "epsilon", 0, "claimed relative error bound for the ε-approximate algorithms (0 = the algorithm's default; exact algorithms ignore it)")
	fs.IntVar(&opt.kneeBuckets, "knee-buckets", 0, "open-loop rate buckets for the saturation analysis (0 = engine default; more buckets = finer knee resolution)")
	fs.BoolVar(&opt.verify, "verify", false, "check delivered values against the algorithm's claimed consistency level")
	fs.StringVar(&opt.faults, "faults", "", `deterministic fault-injection spec, comma-separated clauses: "loss:0.01" / "dup:0.01" (i.i.d. per-send probabilities), "dropnth:2@every=5" / "dupnth:2@every=5" (deterministic per-sender rules; proc 0 = all), "crash:1@t=500" / "crash:1@t=500-900" (crash/recover windows), "churn:2@every=400/down=100" (rotating membership churn), "freeze" (crashed processors buffer instead of drop), "seed:7" (fault RNG seed). Applies on both backends`)
	fs.StringVar(&opt.format, "format", "json", "output format: json, text, csv")
	fs.IntVar(&opt.keys, "keys", 1, "independent counter keys requests address (1 = the classic single counter; > 1 routes through the sharded service layer)")
	fs.StringVar(&opt.keyDist, "key-dist", "zipf", "key-popularity distribution for -keys > 1: "+strings.Join(workload.KeyDists(), ", "))
	fs.Float64Var(&opt.keyZipfS, "key-zipf-s", 1.2, "zipf exponent of -key-dist zipf (key 0 is the hottest)")
	fs.IntVar(&opt.shards, "shards", 1, "home shards keys hash onto; each shard is an independent counter instance")
	fs.StringVar(&opt.shardAlgo, "shard-algo", "", "home-shard algorithm: one name for all shards, or a comma-separated list with one entry per shard (default: -algo)")
	fs.StringVar(&opt.migrate, "migrate", "", `hot-key migration spec: a target algorithm, optionally tuned — "combining" or "combining@hot=0.2/every=256/max=1" (hot = completion share that marks a key hot, every = completions per detection window, max = keys that may migrate). Adds a dedicated hot shard of the target algorithm; hot keys drain and cut over to it mid-run`)
	fs.Float64Var(&opt.zipfS, "zipf-s", 1.2, "zipf exponent (scenario zipf)")
	fs.Float64Var(&opt.hotFrac, "hot-frac", 0.1, "hot-set fraction (scenario hotspot)")
	fs.Float64Var(&opt.hotProb, "hot-prob", 0.9, "hot-set probability (scenario hotspot)")
	fs.IntVar(&opt.burstLen, "burst-len", 32, "operations per burst (scenario bursty)")
	fs.Float64Var(&opt.rateFrom, "rate-from", 0, "starting offered rate in ops/tick (scenario ramprate; 0 = auto)")
	fs.Float64Var(&opt.rateTo, "rate-to", 0, "final offered rate in ops/tick (scenario ramprate; 0 = auto)")
	fs.StringVar(&opt.baseline, "baseline", "", `with -study regression: "record" writes the measured fingerprints to the baseline file given as the positional argument; "check" compares against it and exits non-zero when any metric leaves its tolerance band. Standalone: "diff" compares two recorded baseline files (base, current) without re-measuring — the PR-to-PR review form`)
	fs.StringVar(&opt.artifacts, "artifacts", "", "with -study regression: directory to additionally write the study's JSON/CSV artifacts into (created if missing)")
	fs.StringVar(&opt.algos, "algos", "central,ctree", "comma-separated algorithms for -sweep/-study, or \"all\" for every registered algorithm (-study default: all)")
	fs.StringVar(&opt.scenarios, "scenarios", "uniform,zipf", "comma-separated scenarios for -sweep, or \"all\" for every scenario")
	fs.StringVar(&opt.windows, "windows", "", "comma-separated closed-loop admission windows for -sweep (default: -inflight); merge-window sub-sweep for -study (default: 1,4,64)")
	fs.StringVar(&opt.gaps, "gaps", "", "comma-separated mean interarrival gaps for -sweep (default: -mean-gap)")
	fs.StringVar(&opt.ns, "ns", "", "comma-separated processor counts: the n grid dimension for -sweep and -study (default: -n)")
	fs.IntVar(&opt.parallel, "parallel", runtime.GOMAXPROCS(0), "worker goroutines for the simulator cells of -sweep/-study (each cell owns an independent network); wall-clock cells (-backend rt, the rt half of -study simvsreal) measure this machine and always run one at a time")
	var (
		mode      = fs.String("mode", "closed", "admission mode: closed (window throttles) or open (admit at arrival time)")
		sweep     = fs.Bool("sweep", false, "run the -algos x -scenarios x -windows x -gaps x -ns grid into one merged report")
		studyName = fs.String("study", "", "packaged experiment: "+studyHelp())
		list      = fs.Bool("list", false, "list algorithms and scenarios, then exit")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (inspect with go tool pprof; recipe in docs/EXPERIMENTS.md §10)")
		memprof   = fs.String("memprofile", "", "write an allocation profile, taken after a final GC at exit, to this file")
	)
	err := fs.Parse(args)
	if err != nil {
		return err
	}
	opt.args = fs.Args()
	if *list {
		fmt.Fprintln(out, "algorithms:", strings.Join(registry.Names(), ", "))
		fmt.Fprintln(out, "scenarios: ", strings.Join(workload.Names(), ", ")+", adversarial")
		return nil
	}
	// The explicitly set flags, in name order; a NaN or infinite float is
	// never a usable knob (and compares false against every range check).
	var set []string
	var nonFinite error
	fs.Visit(func(f *flag.Flag) {
		set = append(set, f.Name)
		if v, ok := f.Value.(flag.Getter).Get().(float64); ok && nonFinite == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			nonFinite = fmt.Errorf("need a finite -%s (got %v)", f.Name, v)
		}
	})
	if nonFinite != nil {
		return nonFinite
	}
	if opt.mode, err = engine.ParseMode(*mode); err != nil {
		return err
	}
	// A measurement tool must not silently ignore an explicit selection:
	// the single-run, sweep, and study flag families are mutually exclusive,
	// and a grid rejects every set flag it does not read.
	var st *study
	switch {
	case *sweep && *studyName != "":
		return fmt.Errorf("-sweep and -study are mutually exclusive")
	case *sweep:
		st = &sweepGrid
	case *studyName != "":
		if st = findStudy(*studyName); st == nil {
			return fmt.Errorf("unknown study %q (have %s)", *studyName, strings.Join(studyNames(), ", "))
		}
	default:
		for _, name := range set {
			if listed(gridFlags, name) {
				return fmt.Errorf("-%s only applies with -sweep or -study", name)
			}
		}
	}
	if st != nil {
		if err := st.admit(fs, set, &opt); err != nil {
			return err
		}
	}
	// Everything below sees the study's defaults, so a typo is caught
	// before any simulation runs.
	switch {
	case opt.n < 1:
		return fmt.Errorf("need -n >= 1 (got %d)", opt.n)
	case opt.ops < 1:
		return fmt.Errorf("need -ops >= 1 (got %d)", opt.ops)
	case opt.format != "json" && opt.format != "text" && opt.format != "csv":
		return fmt.Errorf("unknown format %q (have json, text, csv)", opt.format)
	case opt.backend != "sim" && opt.backend != "rt":
		return fmt.Errorf("unknown backend %q (have %s)", opt.backend, strings.Join(registry.Backends(), ", "))
	case opt.service < 0:
		return fmt.Errorf("need -service >= 0 (got %d)", opt.service)
	case opt.keys < 1:
		return fmt.Errorf("need -keys >= 1 (got %d)", opt.keys)
	case opt.shards < 1:
		return fmt.Errorf("need -shards >= 1 (got %d)", opt.shards)
	case opt.window < 0:
		return fmt.Errorf("need -window >= 0 (got %d)", opt.window)
	case opt.parallel < 1:
		return fmt.Errorf("need -parallel >= 1 (got %d)", opt.parallel)
	}
	switch opt.baseline {
	case "":
		if len(opt.args) > 0 {
			return fmt.Errorf("unexpected argument %q (only -baseline record|check|diff takes positional file paths)", opt.args[0])
		}
	case "record", "check":
		if *studyName != "regression" {
			return fmt.Errorf("-baseline %s needs -study regression", opt.baseline)
		}
		if len(opt.args) != 1 {
			return fmt.Errorf("-baseline %s needs exactly one baseline file path argument, as the last argument (got %d: %v; flags after the path are not parsed)",
				opt.baseline, len(opt.args), opt.args)
		}
	case "diff":
		// Diff compares two already-recorded files — no measurement, so no
		// study; loadgen -study regression -baseline record produced both.
		if st != nil {
			return fmt.Errorf("-baseline diff compares two recorded baseline files without re-measuring; drop -study/-sweep")
		}
		if len(opt.args) != 2 {
			return fmt.Errorf("-baseline diff needs exactly two baseline file paths (base then current), as the last arguments (got %d: %v)",
				len(opt.args), opt.args)
		}
		return runBaselineDiff(out, opt.format, opt.args[0], opt.args[1])
	default:
		return fmt.Errorf("unknown -baseline mode %q (have record, check, diff)", opt.baseline)
	}
	if opt.artifacts != "" && *studyName != "regression" {
		return fmt.Errorf("-artifacts only applies with -study regression")
	}
	if _, err := registryConfig(opt); err != nil {
		return err // a bad -service-dist or -faults spec
	}
	if _, err := parseMigrateSpec(opt.migrate); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if st != nil {
		return runStudy(out, st, opt)
	}
	res, err := runOne(opt, opt.algo, opt.scenario)
	if err != nil {
		return err
	}
	if err := emit(out, opt.format, render(res, report.WriteCSV, report.Render, report.WriteJSON)); err != nil {
		return err
	}
	if v := res.Verification; v != nil && v.Violations > 0 {
		// The report already rendered; the non-zero exit is the contract
		// CI gates rely on instead of output grepping.
		return fmt.Errorf("verification failed: %d violations against %s consistency (first: %s)",
			v.Violations, v.Property, v.First)
	}
	return nil
}

// document is what a run, sweep or study has to say, in the three output
// forms, plus the verdict the process exits with once it has been written
// (nil = pass).
type document struct {
	csv     func(io.Writer) error
	text    func() string
	json    func(io.Writer) error
	verdict error
}

// emit writes the document in the selected -format (validated by run).
func emit(out io.Writer, format string, doc document) error {
	switch format {
	case "csv":
		return doc.csv(out)
	case "text":
		_, err := io.WriteString(out, doc.text())
		return err
	}
	return doc.json(out)
}

// render wraps a report value and its three report-package writers as a
// document.
func render[T any](v T, csv func(io.Writer, T) error, text func(T) string, json func(io.Writer, T) error) document {
	return document{
		csv:  func(w io.Writer) error { return csv(w, v) },
		text: func() string { return text(v) },
		json: func(w io.Writer) error { return json(w, v) },
	}
}

// writeJSON writes v as an indented JSON document.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// startProfiles starts CPU profiling and/or arranges an exit-time
// allocation profile, returning the teardown to defer. Teardown failures
// are reported on stderr rather than through the exit code: a profile is a
// measurement aid, and the run it measured still succeeded.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	stop = func() {}
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return stop, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return stop, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	stop = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -memprofile:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -memprofile:", err)
			}
		}
	}
	return stop, nil
}

// expandAlgos splits an -algos flag value, expanding the "all" sentinel to
// every registered algorithm — the one place sweep and study agree on what
// "all" means.
func expandAlgos(algos string) []string {
	list := splitList(algos)
	if len(list) == 1 && list[0] == "all" {
		return registry.Names()
	}
	return list
}

// splitList splits a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseInts parses a comma-separated list of positive integers; an unset
// (empty) flag value is the one-element list of its default.
func parseInts(s, flagName string, def int) ([]int, error) {
	if s == "" {
		return []int{def}, nil
	}
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("%s: %q is not a positive integer", flagName, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty list", flagName)
	}
	return out, nil
}
