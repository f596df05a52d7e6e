package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric catalogue")

// testScale shrinks every workload and probe so the whole matrix runs in a
// few seconds; the figures are meaningless, their presence is the test.
const testScale = 0.005

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// specFromCatalogue is what BENCHMARK.json must say, given the tables in
// metrics.go and workloads.go.
func specFromCatalogue() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, specEntry{w.name, w.why})
	}
	for _, d := range gated() {
		bound := d.bound
		spec.EndToEnd = append(spec.EndToEnd, specMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range layerMetrics {
		spec.PerLayer = append(spec.PerLayer, specMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return spec
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := json.MarshalIndent(specFromCatalogue(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the catalogue; run go test -run BenchmarkJSON -update .\nwant:\n%s", want)
	}
}

// TestCatalogueWithinContract checks the limits the driver's contract sets
// on names, units, whys and list lengths.
func TestCatalogueWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) != 7 {
		t.Errorf("%d workloads, want 7", len(workloads))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(layerMetrics) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 128", len(layerMetrics))
	}
	maxBound := 0.0
	for _, d := range append(gated(), layerMetrics...) {
		check(d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is outside the contract", d.name, d.unit)
		}
		if d.better != higher && d.better != lower {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
		if d.bound > 0.25 {
			t.Errorf("metric %s: bound %g exceeds 0.25", d.name, d.bound)
		}
		maxBound = math.Max(maxBound, d.bound)
	}
	for _, d := range gated() {
		if d.name == "setup_s" && (d.bound != maxBound || d.unit != "s" || d.better != lower) {
			t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound (%g): %+v", maxBound, d)
		}
	}
}

// buildLoadgen builds cmd/loadgen the way run.sh does.
func buildLoadgen(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "loadgen")
	if out, err := exec.Command("go", "build", "-o", bin, "distcount/cmd/loadgen").CombinedOutput(); err != nil {
		t.Fatalf("go build distcount/cmd/loadgen: %v\n%s", err, out)
	}
	return bin
}

// TestEveryWorkloadReportsEveryMetric runs each workload, untraced and
// traced (probes included), at a tiny scale and checks that every metric
// BENCHMARK.json names comes out present, finite and tagged with the
// catalogue's unit.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	loadgen := buildLoadgen(t)
	for _, w := range workloads {
		if w.studies() {
			continue // TestStudiesPass
		}
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: w.name, seed: 1, seconds: 0, trace: trace, scale: testScale,
				loadgen: loadgen, baseline: filepath.Join("..", "baselines", "default.json"),
			}
			res, err := runWorkload(cfg, time.Now())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d %v",
					w.name, trace, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatalf("%s traced=%v: last line is not JSON: %v", w.name, trace, err)
			}
			want := gated()
			if trace {
				want = layerMetrics
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the last line, want %d", w.name, trace, len(last.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := last.Metrics[d.name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s traced=%v: metric %s is missing", w.name, trace, d.name)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, trace, d.name, *got.Value)
				case got.Unit != d.unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.name, trace, d.name, got.Unit, d.unit)
				case !trace && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, *got.Value)
				}
			}
			// The metrics bound to this workload must be there as well.
			for _, d := range endToEnd {
				if d.on != nil && d.appliesTo(w.name) && res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s traced=%v: %s = %v", w.name, trace, d.name, res.Metrics[d.name].Value)
				}
			}
		}
	}
}

// TestStudiesPass runs one pass of the five studies (they cannot be scaled
// down, so not the warm-up-plus-three the workload makes) and derives the
// workload's metrics from it.
func TestStudiesPass(t *testing.T) {
	if testing.Short() {
		t.Skip("one pass of the studies takes 1.5 s")
	}
	spec, _ := findWorkload(wStudies)
	r := &runner{spec: spec, cfg: config{
		seed: 1, scale: testScale, loadgen: buildLoadgen(t), baseline: filepath.Join("..", "baselines", "default.json"),
	}}
	rep, err := r.rep(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted < 100 || rep.digest == "" || len(rep.studies) != len(studyNames) || rep.childRSSKB == 0 {
		t.Errorf("pass: %+v", rep)
	}
	m := make(metricSet)
	endToEndMetrics(m, spec, []*repResult{rep}, time.Second)
	for _, name := range []string{"ops_per_s", "setup_s", "study_wall_s"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v", name, m[name].Value)
		}
	}
}

func TestQuantiles(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 10}, {0.9, 7.6}, {0.125, 1.5},
	} {
		if got := quantile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	in := []float64{9, 1, 5, 3, 7}
	med, q1, q3 := summarize(in)
	if med != 5 || q1 != 3 || q3 != 7 {
		t.Errorf("summarize = %v %v %v, want 5 3 7", med, q1, q3)
	}
	if in[0] != 9 {
		t.Error("summarize reordered its argument")
	}
	if got := iqrShare(Stat{Value: 5, Q1: 3, Q3: 7}); got != 0.8 {
		t.Errorf("iqrShare = %v, want 0.8", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// rep [0,100] holds engine.Run [10,90], which holds an aggregate of
	// generator calls busy for 25 and a verify span [60,80].
	spans := []Span{
		{Name: "rep", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "engine.Run", StartNs: 10, EndNs: 90, Parent: 0},
		{Name: "workload.Next", StartNs: 10, EndNs: 90, Parent: 1, BusyNs: 25, Calls: 5},
		{Name: "verify.Evaluate", StartNs: 60, EndNs: 80, Parent: 1},
		{Name: "engine.Run", StartNs: 90, EndNs: 95, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]int64{"rep": 100 - 80 - 5, "engine.Run": 80 - 25 - 20 + 5, "workload.Next": 25, "verify.Evaluate": 20}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	if id := off.begin("x"); id != -1 {
		t.Errorf("nil tracer began span %d", id)
	}
	off.end(-1)
	off.aggregate("y", -1, time.Second, 3)

	tr := newTracer("w")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	tr.aggregate("calls", outer, 5*time.Nanosecond, 2)
	if len(tr.spans) != 3 || tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || tr.spans[2].Parent != outer {
		t.Errorf("spans %+v", tr.spans)
	}
	if tr.spans[2].covered() != 5 {
		t.Errorf("aggregate covers %d, want 5", tr.spans[2].covered())
	}
}

// compareFixture is a one-workload result of sim_open_verify with every
// end-to-end metric the workload defines.
func compareFixture(opsPerS, q1, q3, knee float64) *Result {
	one := func(v float64, unit string) Stat { return Stat{Value: v, Q1: v, Q3: v, N: 1, Unit: unit} }
	return &Result{
		Workload: wSimOpenVerify,
		Correct:  true,
		Env:      Env{Scale: 1, Commit: "unknown", Seed: 1},
		Metrics: metricSet{
			"ops_per_s":             {Value: opsPerS, Q1: q1, Q3: q3, N: 5, Unit: "1/s"},
			"peak_rss_mb":           one(100, "MB"),
			"setup_s":               one(0.3, "s"),
			"sim_knee_ops_per_tick": one(knee, "ops/tick"),
			"sim_msgs_per_op":       one(4, "msgs/op"),
			"failed_op_share":       one(0, "share"),
			"engine.peak_in_flight": one(16, "count"),
		},
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	suite := func(name string, edit func(*SuiteResult), rs ...*Result) string {
		s := SuiteResult{Env: rs[0].Env, Traced: rs[0].Traced, Results: rs}
		if edit != nil {
			edit(&s)
		}
		return write(name, s)
	}
	base := suite("a.json", nil, compareFixture(1000, 990, 1010, 1.5))

	pinned := func(r *Result) *Result { r.Env.Commit = "abc"; return r }
	traced := func(r *Result, inFlight float64) *Result {
		r.Traced = true
		r.Metrics.set("engine.peak_in_flight", inFlight)
		return r
	}
	pinnedBase := suite("pinned.json", nil, pinned(compareFixture(1000, 990, 1010, 1.5)))
	tracedBase := suite("traced.json", nil, traced(compareFixture(1000, 990, 1010, 1.5), 16))
	tracedPinned := suite("traced-pinned.json", nil, pinned(traced(compareFixture(1000, 990, 1010, 1.5), 16)))

	for _, c := range []struct {
		name, a, b string
		ok         bool
		expect     string
	}{
		{"same", base, suite("same.json", nil, compareFixture(1000, 990, 1010, 1.5)), true, "identical"},
		{"within bound", base, suite("near.json", nil, compareFixture(900, 890, 910, 1.5)), true, " ok"},
		{"slower beyond bound", base, suite("slow.json", nil, compareFixture(700, 690, 710, 1.5)), false, "REGRESSION"},
		{"noisy", base, suite("noisy.json", nil, compareFixture(980, 700, 1100, 1.5)), true, "unresolved"},
		{"sim metric moved", base, suite("knee.json", nil, compareFixture(1000, 990, 1010, 1.4)), false, "REGRESSION"},
		// The file one workload writes with -workload W -o FILE.
		{"single-workload file", base, write("one.json", compareFixture(1000, 990, 1010, 1.5)), true, "identical"},
		// A simulated metric that drifts within its bound passes across
		// commits, and fails between two runs of one commit and seed.
		{"sim drift, commits unknown", base, suite("drift.json", nil, compareFixture(1000, 990, 1010, 1.4999)), true, " ok"},
		{"sim drift, same commit", pinnedBase, suite("drift-pinned.json", nil, pinned(compareFixture(1000, 990, 1010, 1.4999))), false, "NOT REPEATABLE"},
		{"count differs across commits", tracedBase, suite("count.json", nil, traced(compareFixture(1000, 990, 1010, 1.5), 17)), true, "count differs"},
		{"count differs, same commit", tracedPinned, suite("count-pinned.json", nil, pinned(traced(compareFixture(1000, 990, 1010, 1.5), 17))), false, "NOT REPEATABLE"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, c.a, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok || !bytes.Contains(out.Bytes(), []byte(c.expect)) {
			t.Errorf("%s: ok=%v, want %v with %q in:\n%s", c.name, ok, c.ok, c.expect, out.String())
		}
	}

	// Files with nothing comparable in them are refused, not passed.
	incorrect := compareFixture(1000, 990, 1010, 1.5)
	incorrect.Correct = false
	lacking := compareFixture(1000, 990, 1010, 1.5)
	delete(lacking.Metrics, "sim_msgs_per_op")
	other := compareFixture(1000, 990, 1010, 1.5)
	other.Workload = wSimClosedCentral
	for name, path := range map[string]string{
		"no results":          write("empty.json", SuiteResult{Env: Env{Scale: 1}}),
		"another scale":       suite("scale.json", func(s *SuiteResult) { s.Env.Scale = 0.5 }, compareFixture(1000, 990, 1010, 1.5)),
		"failed its checks":   suite("incorrect.json", nil, incorrect),
		"a metric is missing": suite("lacking.json", nil, lacking),
		"other workloads":     suite("other.json", nil, compareFixture(1000, 990, 1010, 1.5), other),
	} {
		for _, pair := range [][2]string{{base, path}, {path, base}} {
			if ok, err := compareFiles(&bytes.Buffer{}, pair[0], pair[1]); err == nil {
				t.Errorf("%s: compared (ok=%v), want an error", name, ok)
			}
		}
	}
}

func TestCSVCells(t *testing.T) {
	rows, bad, err := csvCells([]byte("algo,n,skipped\ncentral,8,\nctree,8,wedged\n"))
	if err != nil || rows != 2 || bad != 1 {
		t.Errorf("skipped column: rows=%d bad=%d err=%v", rows, bad, err)
	}
	rows, bad, err = csvCells([]byte("algo,metric,status\n,ops,pass\n,seed,fail\n,x,pass\n"))
	if err != nil || rows != 3 || bad != 1 {
		t.Errorf("status column: rows=%d bad=%d err=%v", rows, bad, err)
	}
	if _, _, err := csvCells([]byte("algo,n\n")); err == nil {
		t.Error("a CSV without rows should be an error")
	}
}
