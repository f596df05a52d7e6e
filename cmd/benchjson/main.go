// Command benchjson converts `go test -bench` text output into the
// repository's bench trajectory artifact: one JSON document per PR with the
// aggregated benchmark metrics, the derived simulator event-cost figures,
// and the regression-study wall time, so CI runs accumulate comparable
// performance snapshots over time (BENCH_<pr>.json).
//
// Usage:
//
//	go test -bench 'SimulatorEventThroughput|Inc|WorkloadEngine' \
//	    -benchmem -count 3 -benchtime 100x . | benchjson -pr 8 -wall-ms 2100 > BENCH_8.json
//
// Benchmark lines repeated by -count N are aggregated by name (mean per
// metric, run count recorded). Non-benchmark lines are ignored, so the raw
// `go test` stream pipes straight in. The simulator's event cost is derived
// from BenchmarkSimulatorEventThroughput: one central-counter Inc is three
// simulator events (the operation-start event plus one delivery per
// message, and central exchanges request + reply), so ns/event and
// allocs/event are the per-op figures divided by three, with the divisor
// recorded in the artifact.
//
// The second mode gates the trajectory:
//
//	benchjson -diff BENCH_15.json BENCH_16.json
//
// compares two artifacts benchmark by benchmark and exits 1 when a benchmark
// present in both allocates more per op or sends a different number of
// messages per op — the two figures that repeat exactly from run to run on
// the simulator. ns/op and B/op are printed as new/old ratios and never
// gated: a single-shot timing from a shared box moves ±30 % with no code
// change (Inc/central read 1016/755/1220/931 ns over four points).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// eventThroughputBench is the benchmark the event-cost derivation reads.
const eventThroughputBench = "SimulatorEventThroughput"

// eventsPerOp is that benchmark's op→event conversion: operation start plus
// two message deliveries per central-counter increment.
const eventsPerOp = 3

// benchEntry is one aggregated benchmark in the artifact.
type benchEntry struct {
	Name string `json:"name"`
	// Runs is the number of -count repetitions aggregated into Metrics.
	Runs int `json:"runs"`
	// Metrics maps unit → mean value over the runs (e.g. "ns/op": 712.4).
	Metrics map[string]float64 `json:"metrics"`
}

// artifact is the BENCH_<pr>.json document.
type artifact struct {
	Schema string `json:"schema"`
	PR     int    `json:"pr,omitempty"`
	Go     string `json:"go"`
	// EventNs and EventAllocs are the simulator's per-event cost derived
	// from the event-throughput benchmark; EventsPerOp records the divisor.
	EventNs     float64 `json:"event_ns,omitempty"`
	EventAllocs float64 `json:"event_allocs,omitempty"`
	EventsPerOp int     `json:"events_per_op,omitempty"`
	// RegressionWallMs is the wall-clock duration of the regression study,
	// measured by the caller and passed through -wall-ms (0 = not measured).
	RegressionWallMs int64        `json:"regression_study_wall_ms,omitempty"`
	Benchmarks       []benchEntry `json:"benchmarks"`
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	pr := fs.Int("pr", 0, "PR number recorded in the artifact")
	wallMs := fs.Int("wall-ms", 0, "regression-study wall time in milliseconds, measured by the caller")
	diff := fs.Bool("diff", false, "compare two artifacts (old.json new.json) instead of reading benchmark text; exit 1 on higher allocs/op or different msgs/op")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff takes two artifacts: old.json new.json")
		}
		return runDiff(fs.Arg(0), fs.Arg(1), out)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q (benchmark text is read from stdin)", fs.Arg(0))
	}

	entries, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}

	art := artifact{
		Schema:           "distcount-bench/v1",
		PR:               *pr,
		Go:               runtime.Version(),
		RegressionWallMs: int64(*wallMs),
		Benchmarks:       entries,
	}
	for _, e := range entries {
		if strings.TrimPrefix(e.Name, "Benchmark") == eventThroughputBench {
			art.EventNs = e.Metrics["ns/op"] / eventsPerOp
			art.EventAllocs = e.Metrics["allocs/op"] / eventsPerOp
			art.EventsPerOp = eventsPerOp
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(art)
}

// parseBench aggregates the Benchmark... lines of a `go test -bench` stream
// by name: mean per metric over the -count repetitions. The trailing
// -GOMAXPROCS suffix is stripped so artifacts from machines with different
// core counts aggregate under the same name.
func parseBench(in io.Reader) ([]benchEntry, error) {
	type acc struct {
		runs int
		sums map[string]float64
	}
	accs := map[string]*acc{}
	var order []string

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// A benchmark line is: name iterations (value unit)+ — and the name
		// starts with "Benchmark". Anything else (test output, PASS, ok) is
		// not ours.
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // e.g. "BenchmarkFoo ... --- FAIL" shapes
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip -GOMAXPROCS
			}
		}
		a := accs[name]
		if a == nil {
			a = &acc{sums: map[string]float64{}}
			accs[name] = a
			order = append(order, name)
		}
		a.runs++
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: bad value %q", sc.Text(), fields[i])
			}
			a.sums[fields[i+1]] += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	entries := make([]benchEntry, 0, len(order))
	for _, name := range order {
		a := accs[name]
		metrics := make(map[string]float64, len(a.sums))
		for unit, sum := range a.sums {
			metrics[unit] = sum / float64(a.runs)
		}
		entries = append(entries, benchEntry{Name: name, Runs: a.runs, Metrics: metrics})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// rtPrefix marks the rt-backend benchmarks. Their allocation counts
// follow the OS scheduler (how many mailbox batches a run happens to form),
// so -diff prints them and gates only their msgs/op.
const rtPrefix = "BenchmarkRT"

// allocsMayRise is how far allocs/op may rise between two points before
// -diff calls it a regression. The artifact stores go test's integer
// allocs/op averaged over -count runs, and the engine benchmarks wobble by
// one object in ~4000 from run to run on unchanged code; half an object (or
// 0.05 %) is below any real per-operation regression — one more allocation
// per simulated op is +1 on BenchmarkInc and +2000 on BenchmarkWorkloadEngine.
func allocsMayRise(old float64) float64 { return math.Max(0.5, old*0.0005) }

func loadArtifact(path string) (artifact, error) {
	var art artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return art, err
	}
	if err := json.Unmarshal(data, &art); err != nil {
		return art, fmt.Errorf("%s: %w", path, err)
	}
	if len(art.Benchmarks) == 0 {
		return art, fmt.Errorf("%s: no benchmarks in artifact", path)
	}
	return art, nil
}

// exact renders the old → new pair of a gated metric, "-" when a side lacks
// it.
func exact(o, n map[string]float64, unit string) string {
	ov, ook := o[unit]
	nv, nok := n[unit]
	if !ook || !nok {
		return "-"
	}
	return fmt.Sprintf("%.6g → %.6g", ov, nv)
}

// ratio renders new/old of a metric that is reported but not gated.
func ratio(o, n map[string]float64, unit string) string {
	if o[unit] <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f×", n[unit]/o[unit])
}

// runDiff prints the benchmarks the two artifacts share, one per line, and
// returns an error naming the gated regressions when there are any.
func runDiff(oldPath, newPath string, out io.Writer) error {
	oldArt, err := loadArtifact(oldPath)
	if err != nil {
		return err
	}
	newArt, err := loadArtifact(newPath)
	if err != nil {
		return err
	}
	before := make(map[string]map[string]float64, len(oldArt.Benchmarks))
	for _, e := range oldArt.Benchmarks {
		before[e.Name] = e.Metrics
	}

	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tallocs/op\tmsgs/op\tns/op\tB/op\t")
	var failed []string
	shared := 0
	for _, e := range newArt.Benchmarks {
		o, ok := before[e.Name]
		if !ok {
			continue
		}
		shared++
		n := e.Metrics
		var problems []string
		verdict := ""
		if oa, na := o["allocs/op"], n["allocs/op"]; na > oa+allocsMayRise(oa) {
			if strings.HasPrefix(e.Name, rtPrefix) {
				verdict = "allocs/op higher (rt: not gated)"
			} else {
				problems = append(problems, "allocs/op higher")
			}
		}
		om, ook := o["msgs/op"]
		nm, nok := n["msgs/op"]
		if ook && nok && math.Abs(nm-om) > 1e-9*math.Max(math.Abs(om), 1) {
			problems = append(problems, "msgs/op differs")
		}
		if len(problems) > 0 {
			verdict = "FAIL " + strings.Join(problems, ", ")
			failed = append(failed, e.Name)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", strings.TrimPrefix(e.Name, "Benchmark"),
			exact(o, n, "allocs/op"), exact(o, n, "msgs/op"), ratio(o, n, "ns/op"), ratio(o, n, "B/op"), verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if shared == 0 {
		return fmt.Errorf("%s and %s share no benchmark", oldPath, newPath)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d shared benchmarks regressed on an exact metric: %s",
			len(failed), shared, strings.Join(failed, ", "))
	}
	fmt.Fprintf(out, "%d shared benchmarks: no allocs/op above, no msgs/op different from %s (ns/op and B/op are reported, not gated)\n",
		shared, oldPath)
	return nil
}
