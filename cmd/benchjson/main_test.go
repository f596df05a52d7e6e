package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: distcount
BenchmarkInc/central/n=81-8         	 1000000	      1103 ns/op	         3.951 msgs/op	     256 B/op	       5 allocs/op
BenchmarkInc/central/n=81-8         	 1000000	      1097 ns/op	         3.951 msgs/op	     256 B/op	       5 allocs/op
BenchmarkSimulatorEventThroughput-8 	 1698028	       660.0 ns/op	     171 B/op	       3 allocs/op
BenchmarkSimulatorEventThroughput-8 	 1761006	       720.0 ns/op	     171 B/op	       3 allocs/op
BenchmarkSimulatorEventThroughput-8 	 1840344	       690.0 ns/op	     170 B/op	       3 allocs/op
PASS
ok  	distcount	64.492s
`

func TestParseBenchAggregates(t *testing.T) {
	entries, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(entries), entries)
	}
	// Sorted by name: Inc first.
	inc, thr := entries[0], entries[1]
	if inc.Name != "BenchmarkInc/central/n=81" || inc.Runs != 2 {
		t.Fatalf("inc entry wrong: %+v", inc)
	}
	if got := inc.Metrics["ns/op"]; got != 1100 {
		t.Fatalf("inc ns/op mean = %v, want 1100", got)
	}
	if got := inc.Metrics["msgs/op"]; got != 3.951 {
		t.Fatalf("inc msgs/op = %v", got)
	}
	if thr.Name != "BenchmarkSimulatorEventThroughput" || thr.Runs != 3 {
		t.Fatalf("throughput entry wrong: %+v", thr)
	}
	if got := thr.Metrics["ns/op"]; got != 690 {
		t.Fatalf("throughput ns/op mean = %v, want 690", got)
	}
}

func TestRunEmitsArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-pr", "8", "-wall-ms", "2100"}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(out.Bytes(), &art); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if art.Schema != "distcount-bench/v1" || art.PR != 8 || art.RegressionWallMs != 2100 {
		t.Fatalf("header wrong: %+v", art)
	}
	if art.EventsPerOp != eventsPerOp {
		t.Fatalf("events_per_op = %d, want %d", art.EventsPerOp, eventsPerOp)
	}
	if want := 690.0 / eventsPerOp; math.Abs(art.EventNs-want) > 1e-9 {
		t.Fatalf("event_ns = %v, want %v", art.EventNs, want)
	}
	if want := 3.0 / eventsPerOp; math.Abs(art.EventAllocs-want) > 1e-9 {
		t.Fatalf("event_allocs = %v, want %v", art.EventAllocs, want)
	}
	if len(art.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(art.Benchmarks))
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Fatal("want error on benchmark-free input")
	}
}

// writeArtifact stores an artifact with the given benchmarks under dir.
func writeArtifact(t *testing.T, dir, name string, entries ...benchEntry) string {
	t.Helper()
	data, err := json.Marshal(artifact{Schema: "distcount-bench/v1", Benchmarks: entries})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func entry(name string, allocs, msgs, ns float64) benchEntry {
	m := map[string]float64{"allocs/op": allocs, "ns/op": ns, "B/op": 100}
	if msgs >= 0 {
		m["msgs/op"] = msgs
	}
	return benchEntry{Name: name, Runs: 3, Metrics: m}
}

// TestDiffGatesExactMetricsOnly: -diff fails on more allocations or a
// different message count, and on nothing else — not on ns/op or B/op, not
// on the ±1 wobble of a several-thousand-object engine benchmark, not on the
// rt benchmarks' scheduler-dependent allocations, and not on benchmarks only
// one side has.
func TestDiffGatesExactMetricsOnly(t *testing.T) {
	dir := t.TempDir()
	old := writeArtifact(t, dir, "old.json",
		entry("BenchmarkInc/central/n=81", 2, 1.96, 900),
		entry("BenchmarkInc/ctree/n=81", 19, 9.61, 3000),
		entry("BenchmarkWorkloadEngine/central/uniform/n=64", 4033, -1, 1e6),
		entry("BenchmarkRTWall/central/n=8", 920.67, -1, 1.2e6),
		entry("BenchmarkRTInc", 3, 2, 2500),
		entry("BenchmarkGone", 1, 1, 1),
	)
	for _, tc := range []struct {
		name    string
		entries []benchEntry
		fails   []string // substrings the error must carry; nil = exit 0
	}{
		{"improved and slower", []benchEntry{
			entry("BenchmarkInc/central/n=81", 1, 1.96, 5000), // 5× slower: reported, not gated
			entry("BenchmarkInc/ctree/n=81", 12, 9.61, 100),
			entry("BenchmarkWorkloadEngine/central/uniform/n=64", 4033.33, -1, 1e6),
			entry("BenchmarkRTWall/central/n=8", 990, -1, 1.2e6),
			entry("BenchmarkRTInc", 3, 2, 2500),
			entry("BenchmarkNew", 50, 50, 50),
		}, nil},
		{"one more alloc", []benchEntry{
			entry("BenchmarkInc/central/n=81", 3, 1.96, 900),
			entry("BenchmarkInc/ctree/n=81", 19, 9.61, 3000),
		}, []string{"1 of 2", "BenchmarkInc/central/n=81"}},
		{"engine per-op alloc", []benchEntry{
			entry("BenchmarkWorkloadEngine/central/uniform/n=64", 6033, -1, 1e6),
		}, []string{"BenchmarkWorkloadEngine/central/uniform/n=64"}},
		{"message count moved either way", []benchEntry{
			entry("BenchmarkInc/central/n=81", 2, 1.95, 900),
			entry("BenchmarkRTInc", 3, 3, 2500),
		}, []string{"2 of 2", "BenchmarkInc/central/n=81", "BenchmarkRTInc"}},
		{"nothing shared", []benchEntry{entry("BenchmarkNew", 1, 1, 1)}, []string{"share no benchmark"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-diff", old, writeArtifact(t, dir, "new.json", tc.entries...)}, nil, &out)
			if tc.fails == nil {
				if err != nil {
					t.Fatalf("diff failed: %v\n%s", err, out.String())
				}
				for _, want := range []string{"Inc/central/n=81", "2 → 1", "5.56×", "rt: not gated"} {
					if !strings.Contains(out.String(), want) {
						t.Fatalf("report lacks %q:\n%s", want, out.String())
					}
				}
				if strings.Contains(out.String(), "BenchmarkGone") || strings.Contains(out.String(), "BenchmarkNew") {
					t.Fatalf("report lists a benchmark only one side has:\n%s", out.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("diff passed, want failure naming %v\n%s", tc.fails, out.String())
			}
			for _, want := range tc.fails {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q lacks %q", err, want)
				}
			}
		})
	}
}

func TestDiffBadArgs(t *testing.T) {
	dir := t.TempDir()
	good := writeArtifact(t, dir, "good.json", entry("BenchmarkX", 1, 1, 1))
	empty := writeArtifact(t, dir, "empty.json")
	notJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(notJSON, []byte("Benchmark text, not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-diff"},
		{"-diff", good},
		{"-diff", good, good, good},
		{"-diff", good, filepath.Join(dir, "missing.json")},
		{"-diff", notJSON, good},
		{"-diff", good, empty},
	} {
		if err := run(args, nil, &bytes.Buffer{}); err == nil {
			t.Fatalf("benchjson %v: want an error", args)
		}
	}
}

// bench23Excerpt is `go test -bench` output in the shape BENCH_23.json was
// aggregated from: custom metrics before the -benchmem pair, names with
// brackets and '=' in them, repeated -count lines, a GOMAXPROCS suffix.
const bench23Excerpt = `goos: linux
goarch: amd64
pkg: distcount
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRTAfter-2                                 	     100	    265285 ns/op	         1.002 late_us_p50	       192.9 late_us_p99	     241 B/op	       3 allocs/op
BenchmarkRTClosed/central/n=8-2                    	       3	      1682 ns/op	         1.751 msgs/op	    671313 ops/sec	     203 B/op	       1 allocs/op
BenchmarkRTClosed/central/n=8-2                    	       3	      1702 ns/op	         1.751 msgs/op	    660114 ops/sec	     203 B/op	       1 allocs/op
BenchmarkWorkloadEngine/ctree/bursty/n=256-2       	     100	   5937519 ns/op	       398.0 m_b	         0.2054 ops/tick	         9.000 p99_ticks	 1463371 B/op	   25562 allocs/op
BenchmarkWorkloadEngineKeyed/central[4]/keys=64/n=64-2 	     100	   2412007 ns/op	 1291 B/op	      17 allocs/op
--- FAIL: BenchmarkIncSharded/central/shards=4/n=64
PASS
ok  	distcount	12.345s
`

// FuzzParseBench: the `go test -bench` reader never panics, and whatever it
// accepts is an artifact-shaped aggregate — entries in strictly ascending
// name order (one per benchmark), each with at least one run and one metric,
// no name keeping a GOMAXPROCS suffix the aggregation is meant to strip.
func FuzzParseBench(f *testing.F) {
	f.Add(sampleBench)
	f.Add(bench23Excerpt)
	f.Add("BenchmarkX-8 10 NaN ns/op\nBenchmarkX-8 x 1 ns/op\nBenchmarkX 1 1e999 ns/op 7")
	f.Fuzz(func(t *testing.T, in string) {
		entries, err := parseBench(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, e := range entries {
			if i > 0 && entries[i-1].Name >= e.Name {
				t.Fatalf("entries out of order or repeated: %q then %q", entries[i-1].Name, e.Name)
			}
			if !strings.HasPrefix(e.Name, "Benchmark") || e.Runs < 1 || len(e.Metrics) == 0 {
				t.Fatalf("malformed entry %+v", e)
			}
		}
	})
}
