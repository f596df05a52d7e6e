package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"distcount/internal/engine"
	"distcount/internal/engine/report"
	"distcount/internal/verify"
)

func TestRunJSONDefault(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-algo", "central", "-n", "16", "-ops", "200", "-seed", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Algorithm  string  `json:"algorithm"`
		Scenario   string  `json:"scenario"`
		Ops        int     `json:"ops"`
		Throughput float64 `json:"throughput"`
		Latency    struct {
			P50 float64 `json:"p50"`
			P99 float64 `json:"p99"`
		} `json:"latency"`
		Series []struct {
			BottleneckLoad int64 `json:"bottleneck_load"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if decoded.Algorithm != "central" || decoded.Scenario != "uniform" || decoded.Ops != 200 {
		t.Fatalf("report header wrong: %+v", decoded)
	}
	if decoded.Throughput <= 0 || decoded.Latency.P50 <= 0 || decoded.Latency.P99 < decoded.Latency.P50 {
		t.Fatalf("metrics incoherent: %+v", decoded)
	}
	if len(decoded.Series) == 0 {
		t.Fatal("missing bottleneck-load series")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() string {
		var b strings.Builder
		if err := run([]string{"-algo", "ctree", "-scenario", "zipf", "-n", "27", "-ops", "300", "-seed", "7"}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := mk(), mk(); a != b {
		t.Fatal("identical invocations produced different reports")
	}
}

func TestRunFormats(t *testing.T) {
	for _, format := range []string{"json", "text", "csv"} {
		var b strings.Builder
		err := run([]string{"-algo", "combining", "-n", "8", "-ops", "100", "-format", format}, &b)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if b.Len() == 0 {
			t.Fatalf("%s: empty output", format)
		}
	}
	var b strings.Builder
	if err := run([]string{"-n", "8", "-ops", "50", "-format", "xml"}, &b); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRunEveryScenario(t *testing.T) {
	for _, scen := range []string{"uniform", "zipf", "hotspot", "bursty", "ramp", "mix", "adversarial"} {
		var b strings.Builder
		args := []string{"-algo", "central", "-scenario", scen, "-n", "12", "-ops", "120", "-format", "text"}
		if err := run(args, &b); err != nil {
			t.Fatalf("%s: %v", scen, err)
		}
		if !strings.Contains(b.String(), scen) {
			t.Fatalf("%s: report not labelled:\n%s", scen, b.String())
		}
	}
}

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"ctree", "zipf", "adversarial"} {
		if !strings.Contains(b.String(), frag) {
			t.Fatalf("list output missing %q:\n%s", frag, b.String())
		}
	}
}

// TestRunQuorumAsync: the quorum counters — formerly rejected as
// sequential-only — run through the concurrent engine like everything else.
func TestRunQuorumAsync(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-algo", "quorum-majority", "-n", "9", "-ops", "100", "-format", "text"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "quorum-majority") {
		t.Fatalf("report not labelled:\n%s", b.String())
	}
}

func TestRunBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-algo", "nope"},
		{"-scenario", "nope"},
		{"-ops", "0"},
		{"-definitely-not-a-flag"},
		{"-mode", "half-open"},
		{"-service", "-1"},
		{"-sweep", "-windows", "0"},
		{"-sweep", "-gaps", "x"},
		{"-sweep", "-algos", ","},
		{"-sweep", "-parallel", "0"},
		{"-sweep", "-algo", "central"},                  // single-run flag under -sweep
		{"-sweep", "-scenario", "zipf"},                 // single-run flag under -sweep
		{"-sweep", "-mode", "open", "-windows", "4,16"}, // window grid meaningless open-loop
		{"-algos", "central,ctree"},                     // sweep flag without -sweep
		{"-windows", "4,16", "-ops", "100"},             // sweep flag without -sweep
		{"-gaps", "2,8", "-algo", "central"},            // sweep flag without -sweep
		{"-scenarios", "uniform", "-n", "16"},           // sweep flag without -sweep
		{"-parallel", "2", "-algo", "central"},          // sweep flag without -sweep
	} {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunOpenMode: the open loop reports its extras in every format and
// finds the central counter's knee on a serviced rate ramp — the engine's
// headline capability, exercised end to end through the CLI.
func TestRunOpenMode(t *testing.T) {
	args := []string{"-algo", "central", "-scenario", "ramprate", "-mode", "open",
		"-service", "1", "-n", "12", "-ops", "400", "-format", "text"}
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"open loop", "admission", "saturation knee:"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("open-loop output missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "knee: not reached") {
		t.Fatalf("central counter did not saturate on the serviced rate ramp:\n%s", out)
	}
}

// TestRunSweepCSVGolden: a small sweep emits one merged CSV with the
// documented header, exactly one row per grid cell in grid order, and the
// whole artifact is deterministic.
func TestRunSweepCSVGolden(t *testing.T) {
	args := []string{"-sweep", "-algos", "central,tokenring", "-scenarios", "uniform,zipf",
		"-windows", "2,8", "-gaps", "2", "-n", "8", "-ops", "120", "-seed", "5", "-format", "csv"}
	mk := func() string {
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := mk()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+2*2*2 {
		t.Fatalf("sweep CSV has %d lines, want header + 8 rows:\n%s", len(lines), out)
	}
	wantHeader := "algo,scenario,mode,backend,n,ops,inflight,merge_window,mean_gap,service_time,service_dist,queue_cap,faults," +
		"throughput,latency_p50,latency_p90,latency_p99,latency_max," +
		"queue_p50,queue_p99,arrivals,dropped,drop_rate,peak_queue_depth," +
		"messages,msgs_per_op,bottleneck,max_load,mean_load,gini,knee_rate,knee_reason," +
		"verify_property,verify_violations,verify_duplicates,verify_excused,epsilon," +
		"wedged,unserved,fault_lost,fault_dup,fault_crash_dropped," +
		"keys,key_dist,key_zipf_s,shards,shard_algo,migrate,migrations,skipped"
	if lines[0] != wantHeader {
		t.Fatalf("header drifted:\ngot  %q\nwant %q", lines[0], wantHeader)
	}
	wantGrid := []string{
		"central,uniform,closed,sim,8,120,2,16,2",
		"central,uniform,closed,sim,8,120,8,16,2",
		"central,zipf,closed,sim,8,120,2,16,2",
		"central,zipf,closed,sim,8,120,8,16,2",
		"tokenring,uniform,closed,sim,8,120,2,16,2",
		"tokenring,uniform,closed,sim,8,120,8,16,2",
		"tokenring,zipf,closed,sim,8,120,2,16,2",
		"tokenring,zipf,closed,sim,8,120,8,16,2",
	}
	cols := strings.Count(wantHeader, ",")
	for i, prefix := range wantGrid {
		if !strings.HasPrefix(lines[i+1], prefix+",") {
			t.Fatalf("row %d = %q, want prefix %q", i+1, lines[i+1], prefix)
		}
		if got := strings.Count(lines[i+1], ","); got != cols {
			t.Fatalf("row %d has %d commas, want %d: %q", i+1, got, cols, lines[i+1])
		}
	}
	if again := mk(); again != out {
		t.Fatal("identical sweep invocations produced different CSVs")
	}
}

// TestRunVerify: -verify attaches the value-correctness report; the
// linearizable central counter passes with zero violations, while the
// token ring — sequentially correct only — shows duplicate values under
// concurrency, reported as a measurement rather than a failure.
func TestRunVerify(t *testing.T) {
	var b strings.Builder
	args := []string{"-algo", "central", "-scenario", "uniform", "-n", "12", "-ops", "200",
		"-verify", "-format", "text"}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "verification (linearizable): 200 ops, 0 violations") {
		t.Fatalf("central verification line missing or wrong:\n%s", b.String())
	}

	b.Reset()
	args = []string{"-algo", "tokenring", "-scenario", "uniform", "-n", "12", "-ops", "200",
		"-mean-gap", "1", "-verify", "-format", "text"}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "verification (sequential):") || !strings.Contains(out, ", 0 violations") {
		t.Fatalf("tokenring verification line missing or failing:\n%s", out)
	}
	if strings.Contains(out, "(0 duplicates") {
		t.Fatalf("tokenring produced no duplicate values under concurrency:\n%s", out)
	}
}

// TestRunSweepAllAlgos: "-algos all" expands to the full registry, and the
// parallel sweep produces the same deterministic artifact as a serial one.
func TestRunSweepAllAlgos(t *testing.T) {
	mk := func(extra ...string) string {
		args := append([]string{"-sweep", "-algos", "all", "-scenarios", "uniform",
			"-n", "8", "-ops", "60", "-format", "csv"}, extra...)
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := mk("-parallel", "4")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if want := 1 + 14; len(lines) != want {
		t.Fatalf("-algos all produced %d lines, want %d (every registered algorithm):\n%s", len(lines), want, out)
	}
	for _, algo := range []string{"quorum-majority", "tokenring", "cnet-periodic", "difftree"} {
		if !strings.Contains(out, algo+",uniform,") {
			t.Fatalf("-algos all missing %s:\n%s", algo, out)
		}
	}
	// No cell may skip: the skipped reason is the last CSV column.
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",") {
			t.Fatalf("skipped cell in full-registry sweep: %q", line)
		}
	}
	if serial := mk("-parallel", "1"); serial != out {
		t.Fatal("parallel and serial sweeps produced different artifacts")
	}
}

// TestRunSweepReportsSkippedCells: a cell that cannot run (unknown
// scenario in the grid) is reported with its reason, the remaining cells
// still run — and the process exits non-zero anyway, so a CI gate needs no
// output grepping to notice the hole in the grid.
func TestRunSweepReportsSkippedCells(t *testing.T) {
	var b strings.Builder
	args := []string{"-sweep", "-algos", "central", "-scenarios", "uniform,nope",
		"-n", "8", "-ops", "60", "-format", "text"}
	err := run(args, &b)
	if err == nil {
		t.Fatal("sweep with a skipped cell exited zero")
	}
	if !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("exit error does not name the skip: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "SKIPPED:") || !strings.Contains(out, "nope") {
		t.Fatalf("skipped cell not reported:\n%s", out)
	}
	if !strings.Contains(out, "central") || !strings.Contains(out, "uniform") {
		t.Fatalf("surviving cell missing:\n%s", out)
	}

	// A grid with no runnable cell at all is an error, not an empty report.
	b.Reset()
	if err := run([]string{"-sweep", "-algos", "central", "-scenarios", "nope", "-format", "csv"}, &b); err == nil {
		t.Fatal("all-skipped sweep did not error")
	}
}

// TestRunSweepWallCellsRunOneAtATime: rt cells measure this machine's cores,
// so -parallel must not let two of them run together. Each row's makespan is
// wall time spent inside its own cell; cells that ran one after the other sum
// to no more than the whole sweep took, cells that overlapped to more. A
// service cost makes both cells long (≥ 60 ms) and of similar length, so an
// overlap cannot hide inside the sweep's overhead.
func TestRunSweepWallCellsRunOneAtATime(t *testing.T) {
	args := []string{"-sweep", "-backend", "rt", "-parallel", "2",
		"-algos", "central,quorum-singleton", "-scenarios", "uniform",
		"-n", "4", "-ops", "300", "-inflight", "4", "-mean-gap", "1", "-service", "200", "-format", "json"}
	var b strings.Builder
	t0 := time.Now()
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(t0)
	var rows []struct {
		Algorithm  string `json:"algorithm"`
		Backend    string `json:"backend"`
		MakespanNs int64  `json:"sim_time"`
	}
	if err := json.Unmarshal([]byte(b.String()), &rows); err != nil {
		t.Fatalf("invalid sweep JSON: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("sweep produced %d rows, want 2", len(rows))
	}
	var inCells time.Duration
	for _, r := range rows {
		if r.Backend != "rt" || r.MakespanNs < (60*time.Millisecond).Nanoseconds() {
			t.Fatalf("row %+v: want an rt cell of at least 60 ms", r)
		}
		inCells += time.Duration(r.MakespanNs)
	}
	if inCells > elapsed {
		t.Fatalf("the cells ran for %v in total inside a sweep of %v: they shared the machine", inCells, elapsed)
	}
}

// TestVerifyExitContract: the exit-status contract around verification.
// Measured duplicates of the sequential-only token ring are not
// violations, so its -verify run exits zero; an actual violation in any
// row fails gateRows with the offending cell named.
func TestVerifyExitContract(t *testing.T) {
	var b strings.Builder
	args := []string{"-algo", "tokenring", "-scenario", "uniform", "-n", "12", "-ops", "200",
		"-mean-gap", "1", "-verify", "-format", "text"}
	if err := run(args, &b); err != nil {
		t.Fatalf("measured duplicates failed the process: %v", err)
	}
	if !strings.Contains(b.String(), "dup") {
		t.Fatalf("tokenring run did not measure duplicates:\n%s", b.String())
	}

	rows := []report.SweepRow{{Result: &engine.Result{
		Algorithm: "central", Scenario: "uniform", N: 8,
		Verification: &verify.Report{Property: "linearizable", Ops: 100, Violations: 3},
	}}}
	err := gateRows(rows)
	if err == nil {
		t.Fatal("verification violations passed gateRows")
	}
	for _, frag := range []string{"central", "3", "linearizable"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("gate error %q does not name %q", err, frag)
		}
	}
}

// TestRunSweepOpenJSON: an open-mode sweep merges every cell into one JSON
// array, each element carrying its grid coordinates.
func TestRunSweepOpenJSON(t *testing.T) {
	args := []string{"-sweep", "-mode", "open", "-service", "1",
		"-algos", "central,ctree", "-scenarios", "uniform,ramprate",
		"-n", "8", "-ops", "150", "-format", "json"}
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		MeanGap     int64  `json:"mean_gap"`
		ServiceTime int64  `json:"service_time"`
		Algorithm   string `json:"algorithm"`
		Scenario    string `json:"scenario"`
		Mode        string `json:"mode"`
		Ops         int    `json:"ops"`
	}
	if err := json.Unmarshal([]byte(b.String()), &rows); err != nil {
		t.Fatalf("invalid sweep JSON: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("sweep produced %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Mode != "open" || r.ServiceTime != 1 || r.Ops != 150 {
			t.Fatalf("row incoherent: %+v", r)
		}
	}
}

// TestRunSweepNs: -ns makes n a first-class grid dimension — one row per
// (algo, scenario, n) cell, each reporting its own network size.
func TestRunSweepNs(t *testing.T) {
	args := []string{"-sweep", "-algos", "central", "-scenarios", "uniform",
		"-ns", "8,16", "-ops", "80", "-format", "csv"}
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("2-n sweep produced %d lines, want header + 2 rows:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[1], "central,uniform,closed,sim,8,") ||
		!strings.HasPrefix(lines[2], "central,uniform,closed,sim,16,") {
		t.Fatalf("rows do not carry the n grid:\n%s", b.String())
	}
}

// TestRunStudyScaling is the subsystem's CLI acceptance test: one
// invocation produces the per-algorithm knee-vs-n verdicts in every
// format, deterministically, with the expected classifications for the
// central counter (bottleneck-bound: flat knee) and the diffracting tree
// (merge-bound: window-widened knee) at a small but robust size.
func TestRunStudyScaling(t *testing.T) {
	base := []string{"-study", "scaling", "-algos", "central,difftree",
		"-ns", "8,16,32", "-ops", "2000", "-seed", "1"}

	var text strings.Builder
	if err := run(append(base, "-format", "text"), &text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	if !strings.Contains(out, "knee-vs-n scaling study") {
		t.Fatalf("missing study header:\n%s", out)
	}
	for _, want := range []string{"central", "bottleneck-bound", "difftree", "merge-bound"} {
		if !strings.Contains(out, want) {
			t.Fatalf("study text missing %q:\n%s", want, out)
		}
	}

	var csv strings.Builder
	if err := run(append(base, "-format", "csv"), &csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "algo,role,n,merge_window,knee_rate") {
		t.Fatalf("study CSV header wrong: %q", lines[0])
	}
	// central: 3 n-points; difftree: 3 n-points + 4 window points (1, 4,
	// 64 sub-sweep plus the base 16 measured on the n axis).
	if len(lines) != 1+3+3+4 {
		t.Fatalf("study CSV has %d lines, want 11:\n%s", len(lines), csv.String())
	}

	var js strings.Builder
	if err := run(append(base, "-format", "json"), &js); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		BaseWindow int64 `json:"base_window"`
		Algorithms []struct {
			Algorithm string `json:"algorithm"`
			Class     string `json:"class"`
			Points    []struct {
				N        int     `json:"n"`
				KneeRate float64 `json:"knee_rate"`
			} `json:"points"`
		} `json:"algorithms"`
	}
	if err := json.Unmarshal([]byte(js.String()), &decoded); err != nil {
		t.Fatalf("invalid study JSON: %v", err)
	}
	if len(decoded.Algorithms) != 2 {
		t.Fatalf("study JSON has %d algorithms, want 2", len(decoded.Algorithms))
	}

	var again strings.Builder
	if err := run(append(base, "-format", "text"), &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Fatal("identical study invocations produced different reports")
	}
}

// TestRunStudyBadArgs: the study family rejects the flags it would
// silently ignore, and unknown study names.
func TestRunStudyBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-study", "nope"},
		{"-study", "scaling", "-sweep"},
		{"-study", "scaling", "-algo", "central"},
		{"-study", "scaling", "-scenario", "zipf"},
		{"-study", "scaling", "-scenarios", "uniform"},
		{"-study", "scaling", "-gaps", "2,8"},
		{"-study", "scaling", "-mode", "closed"},
		{"-study", "scaling", "-ns", "0"},
		{"-ns", "8,16", "-algo", "central"}, // n grid without -sweep/-study
		{"-window", "-1"},
		// A study reads an allow-list of flags; everything else it would
		// silently ignore: -n where the grid has its own n axis or pin,
		// the closed-loop window on open-loop studies, the knobs of
		// scenarios the study never runs, the series stride where no output
		// form carries a series, and open-loop knobs on the closed-loop
		// skew study.
		{"-study", "scaling", "-n", "200"},
		{"-study", "simvsreal", "-n", "8"},
		{"-study", "faults", "-n", "8"},
		{"-study", "scaling", "-inflight", "3"},
		{"-study", "faults", "-inflight", "3"},
		{"-study", "accuracy", "-inflight", "3"},
		{"-study", "scaling", "-zipf-s", "2"},
		{"-study", "simvsreal", "-hot-frac", "0.3"},
		{"-study", "faults", "-hot-prob", "0.5"},
		{"-study", "skew", "-burst-len", "5"},
		{"-study", "accuracy", "-zipf-s", "2"},
		{"-study", "scaling", "-sample", "3"},
		{"-study", "skew", "-epsilon", "0.1"},
		{"-study", "skew", "-knee-buckets", "8"},
		{"-study", "skew", "-rate-to", "3"},
		{"-study", "skew", "-keys", "8"},
	} {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
