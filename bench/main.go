// Command bench is the repository benchmark: seven workloads, end-to-end
// metrics on two clocks (host time and simulated ticks), per-layer probes
// and a traced run. See README.md in this directory for the glossary and
// the noise policy, and BENCHMARK.json at the repository root for the
// contract the driver runs it under.
//
//	bash bench/run.sh -workload sim_closed_central            # one workload
//	bash bench/run.sh                                         # all seven, one process each
//	bash bench/run.sh -trace 1                                # traced: per-layer metrics, spans
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// procStart is taken as early as the program can: set-up time is counted
// from here to the first timed repetition.
var procStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The scale is frozen: results at different scales do not compare, so it
	// is not a flag. Tests set the field directly.
	cfg := config{scale: defaultScale}
	fs.StringVar(&cfg.workload, "workload", "", "run this workload in this process (default: all seven, each in a child process)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; reaches only workload.Config.Seed and the studies' -seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long the timed repetitions of one workload run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and probes; 0 = end-to-end metrics")
	fs.StringVar(&cfg.out, "o", "", "write the detailed result here (all workloads: default bench/out/result.json, traced bench/out/layers.json plus trace.json beside it)")
	fs.StringVar(&cfg.loadgen, "loadgen", filepath.Join(".bench_build", "loadgen"), "the built cmd/loadgen binary (run.sh builds it)")
	fs.StringVar(&cfg.baseline, "baseline", filepath.Join("baselines", "default.json"), "baseline file the regression study checks")
	compare := fs.Bool("compare", false, "compare two result files given as arguments; exit 1 when a metric worsens beyond its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		return exitCode(ok)
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace takes 0 or 1"))
	}
	cfg.trace = *trace == 1
	if cfg.seconds < 0 {
		return fail(fmt.Errorf("-seconds must not be negative"))
	}
	// The workloads are sized for two cores: one driver goroutine plus the
	// rt backend's processors.
	runtime.GOMAXPROCS(2)

	if cfg.workload == "" {
		ok, err := runSuite(cfg, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		return exitCode(ok)
	}
	res, err := runWorkload(cfg, procStart)
	if err != nil {
		return fail(err)
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, res); err != nil {
			return fail(err)
		}
	}
	if err := res.print(stdout); err != nil {
		return fail(err)
	}
	return exitCode(res.Correct)
}

func exitCode(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// SuiteResult is the result file of a run over all workloads, the input of
// -compare.
type SuiteResult struct {
	Env     Env       `json:"env"`
	Traced  bool      `json:"traced"`
	Results []*Result `json:"results"`
}

// runSuite runs every workload in its own child process, so peak memory is
// per workload and one workload's heap does not shape the next one's GC.
func runSuite(cfg config, stdout, stderr io.Writer) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if cfg.out == "" {
		cfg.out = filepath.Join("bench", "out", "result.json")
		if cfg.trace {
			cfg.out = filepath.Join("bench", "out", "layers.json")
		}
	}
	dir := filepath.Dir(cfg.out)
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	suite := SuiteResult{Env: environment(cfg), Traced: cfg.trace}
	var spans []Span
	ok := true
	for _, w := range workloads {
		detail := filepath.Join(dir, "workload-"+w.name+".json")
		// A child that dies before writing must not leave an earlier run's
		// file to be merged in its place.
		if err := os.Remove(detail); err != nil && !errors.Is(err, os.ErrNotExist) {
			return false, err
		}
		cmd := exec.Command(self,
			"-workload", w.name, "-o", detail,
			"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds),
			"-trace", traceArg,
			"-loadgen", cfg.loadgen, "-baseline", cfg.baseline)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			if _, exited := err.(*exec.ExitError); !exited {
				return false, err
			}
			ok = false
		}
		var res Result
		if err := readJSON(detail, &res); err != nil {
			return false, fmt.Errorf("workload %s left no result: %w", w.name, err)
		}
		// Parent indexes are per workload; rebase them onto the merged list.
		base := len(spans)
		for _, s := range res.Spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
		res.Spans = nil
		suite.Results = append(suite.Results, &res)
	}
	if err := writeJSON(cfg.out, suite); err != nil {
		return false, err
	}
	if cfg.trace {
		if err := writeJSON(filepath.Join(dir, "trace.json"), spans); err != nil {
			return false, err
		}
	}
	fmt.Fprintf(stdout, "# wrote %s\n", cfg.out)
	return ok, nil
}
