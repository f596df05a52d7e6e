package report

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// testBaseline builds a small two-algorithm baseline with realistic
// magnitudes.
func testBaseline() *Baseline {
	return &Baseline{
		Schema:          BaselineSchema,
		Study:           RegressionStudy,
		Seed:            1,
		Ops:             4000,
		BaseWindow:      16,
		Service:         1,
		RateTo:          8,
		KneeBuckets:     48,
		SteadyRate:      0.25,
		QueueCap:        16,
		HeteroDist:      "halfslow",
		HeteroRateTo:    4,
		StragglerDist:   "straggler",
		StragglerRateTo: 4,
		LossSpec:        "loss:0.02",
		CrashSpec:       "crash:1@t=500",
		ScalingNs:       []int{8, 16, 32},
		Windows:         []int{1, 4, 64},
		Fingerprints: []Fingerprint{
			{
				Algorithm: "combining", N: 16,
				KneeRate: 1.40, KneeReason: "latency",
				ServiceP50: 18, ServiceP99: 24,
				MessagesPerOp: 3.1, BottleneckShare: 0.22,
				QueueKneeRate: 1.2, QueueKneeReason: "queue", DropRate: 0.31,
				HeteroKneeRate: 0.9, HeteroKneeReason: "latency",
				StragglerKneeRate: 1.1, StragglerKneeReason: "latency",
				LossKneeRate: 1.3, LossKneeReason: "latency", LossWedged: 12, LossExcused: 5,
				CrashKneeRate: 1.1, CrashKneeReason: "latency", CrashWedged: 4, CrashExcused: 2,
				ScalingClass: ClassMergeBound,
			},
			{
				Algorithm: "central", N: 16,
				KneeRate: 1.02, KneeReason: "latency",
				ServiceP50: 2, ServiceP99: 3,
				MessagesPerOp: 2.0, BottleneckShare: 0.5,
				QueueKneeRate: 1.0, QueueKneeReason: "queue", DropRate: 0.4,
				HeteroKneeRate: 1.0, HeteroKneeReason: "latency",
				StragglerKneeRate: 0.15, StragglerKneeReason: "latency",
				LossKneeRate: 0.95, LossKneeReason: "latency", LossWedged: 16, LossExcused: 8,
				CrashWedged:  16,
				ScalingClass: ClassBottleneckBound,
			},
		},
	}
}

// TestBaselineRoundTrip is the schema's golden test: record → load →
// compare against itself must be byte-stable, schema-checked, and clean.
func TestBaselineRoundTrip(t *testing.T) {
	b := testBaseline()
	var buf strings.Builder
	if err := WriteBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	serialized := buf.String()
	if !strings.Contains(serialized, `"schema": 1`) {
		t.Fatalf("serialized baseline missing schema version:\n%s", serialized)
	}
	// Canonical order: fingerprints sorted by algorithm name.
	if strings.Index(serialized, `"central"`) > strings.Index(serialized, `"combining"`) {
		t.Fatalf("fingerprints not in canonical sorted order:\n%s", serialized)
	}

	loaded, err := LoadBaseline(strings.NewReader(serialized))
	if err != nil {
		t.Fatal(err)
	}
	var again strings.Builder
	if err := WriteBaseline(&again, loaded); err != nil {
		t.Fatal(err)
	}
	if again.String() != serialized {
		t.Fatalf("round trip not byte-stable:\n--- first\n%s\n--- second\n%s", serialized, again.String())
	}

	cmp := CompareBaseline(b, loaded, DefaultTolerances())
	if !cmp.Pass || cmp.Failures != 0 {
		t.Fatalf("self-comparison not clean: pass=%v failures=%d first=%q",
			cmp.Pass, cmp.Failures, cmp.FirstFailure())
	}
	// Every fingerprint metric of both algorithms was actually compared:
	// 16 config metrics + 2 algos x 23 metrics.
	if want := 16 + 2*23; len(cmp.Diffs) != want {
		t.Fatalf("compared %d metrics, want %d", len(cmp.Diffs), want)
	}
}

// TestLoadBaselineRejectsBadDocuments: wrong schema versions and empty
// documents are load errors, not silent gate passes.
func TestLoadBaselineRejectsBadDocuments(t *testing.T) {
	for name, doc := range map[string]string{
		"future schema": `{"schema": 99, "study": "regression", "fingerprints": [{"algorithm": "central"}]}`,
		"zero schema":   `{"study": "regression", "fingerprints": [{"algorithm": "central"}]}`,
		"no prints":     `{"schema": 1, "study": "regression", "fingerprints": []}`,
		"not json":      `knee_rate: 1.0`,
	} {
		if _, err := LoadBaseline(strings.NewReader(doc)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestCompareCatchesKneeRegression is the gate's acceptance test: a 2x
// knee regression on one algorithm flips the comparison to FAIL with the
// offending algorithm and metric named in every output form.
func TestCompareCatchesKneeRegression(t *testing.T) {
	base := testBaseline()
	cur := testBaseline()
	cur.Fingerprint("combining").KneeRate = base.Fingerprint("combining").KneeRate / 2

	cmp := CompareBaseline(base, cur, DefaultTolerances())
	if cmp.Pass {
		t.Fatal("2x knee regression passed the gate")
	}
	if cmp.Failures != 1 {
		t.Fatalf("failures = %d, want exactly the knee diff", cmp.Failures)
	}
	if first := cmp.FirstFailure(); !strings.Contains(first, "combining knee_rate") {
		t.Fatalf("first failure %q does not name combining knee_rate", first)
	}

	text := RenderComparison(cmp)
	if !strings.Contains(text, "regression gate: FAIL") ||
		!strings.Contains(text, "combining") || !strings.Contains(text, "knee_rate") {
		t.Fatalf("text render does not name the regression:\n%s", text)
	}
	// The clean algorithm stays a one-line ok.
	if !strings.Contains(text, "ok   central") {
		t.Fatalf("clean algorithm not summarized:\n%s", text)
	}

	var csv strings.Builder
	if err := WriteComparisonCSV(&csv, cmp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "combining,knee_rate,1.4000,0.7000,0.10,0.12,FAIL") {
		t.Fatalf("CSV does not carry the failing row:\n%s", csv.String())
	}

	var js strings.Builder
	if err := WriteComparisonJSON(&js, cmp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"pass": false`) {
		t.Fatalf("JSON verdict wrong:\n%s", js.String())
	}
}

// TestCompareExactMetrics: knee reasons and the scaling class admit no
// band — any change fails the gate.
func TestCompareExactMetrics(t *testing.T) {
	base := testBaseline()
	cur := testBaseline()
	cur.Fingerprint("central").ScalingClass = ClassScalesWithN
	cur.Fingerprint("central").QueueKneeReason = "latency"

	cmp := CompareBaseline(base, cur, DefaultTolerances())
	if cmp.Pass || cmp.Failures != 2 {
		t.Fatalf("pass=%v failures=%d, want 2 exact-match failures", cmp.Pass, cmp.Failures)
	}
	text := RenderComparison(cmp)
	for _, frag := range []string{"scaling_class", "queue_knee_reason", "exact match required"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("render missing %q:\n%s", frag, text)
		}
	}
}

// TestCompareWithinBandPasses: drift inside the band is not a failure —
// the gate absorbs incidental RNG-sequence drift.
func TestCompareWithinBandPasses(t *testing.T) {
	base := testBaseline()
	cur := testBaseline()
	f := cur.Fingerprint("combining")
	f.KneeRate *= 1.05      // 5% < 10% rel band
	f.ServiceP99 += 1       // 1 tick < 2-tick abs band
	f.MessagesPerOp += 0.05 // well inside rel band

	cmp := CompareBaseline(base, cur, DefaultTolerances())
	if !cmp.Pass {
		t.Fatalf("in-band drift failed the gate: %s", cmp.FirstFailure())
	}
}

// TestCompareConfigDrift: a check against a baseline recorded under a
// different study configuration fails on the config metric, so the gate
// never compares incomparable numbers silently.
func TestCompareConfigDrift(t *testing.T) {
	base := testBaseline()
	cur := testBaseline()
	cur.BaseWindow = 4 // the DefaultWindow-revert scenario

	cmp := CompareBaseline(base, cur, DefaultTolerances())
	if cmp.Pass {
		t.Fatal("config drift passed")
	}
	if first := cmp.FirstFailure(); !strings.Contains(first, "base_window") {
		t.Fatalf("first failure %q does not name base_window", first)
	}
}

// TestCompareAlgorithmSetDrift: missing and extra algorithms both fail.
func TestCompareAlgorithmSetDrift(t *testing.T) {
	base := testBaseline()
	cur := testBaseline()
	cur.Fingerprints = cur.Fingerprints[:1] // drop one algorithm
	cur.Fingerprints = append(cur.Fingerprints, Fingerprint{Algorithm: "brand-new", ScalingClass: ClassUnsaturated})

	cmp := CompareBaseline(base, cur, DefaultTolerances())
	if cmp.Pass {
		t.Fatal("algorithm set drift passed")
	}
	if len(cmp.Missing) != 1 || len(cmp.Extra) != 1 {
		t.Fatalf("missing=%v extra=%v, want one of each", cmp.Missing, cmp.Extra)
	}
	text := RenderComparison(cmp)
	if !strings.Contains(text, "missing from the current run") ||
		!strings.Contains(text, "not in the committed baseline") {
		t.Fatalf("set drift not rendered:\n%s", text)
	}
}

// TestBandWithin covers the band arithmetic's edges: zero baselines rely
// on the absolute arm, and the zero band means exact.
func TestBandWithin(t *testing.T) {
	b := Band{Rel: 0.10, Abs: 0.12}
	for _, tc := range []struct {
		base, cur float64
		want      bool
	}{
		{1.0, 1.09, true},   // inside rel
		{1.0, 1.13, false},  // outside both (rel 0.10 < 0.13, abs 0.12 < 0.13)
		{0, 0.1, true},      // zero base: abs arm
		{0, 0.2, false},     // zero base, outside abs
		{2.0, 1.85, true},   // rel arm widens with magnitude
		{0.05, 0.15, true},  // small base: abs arm saves it
		{0.05, 0.20, false}, // exceeds even abs
	} {
		if got := b.Within(tc.base, tc.cur); got != tc.want {
			t.Fatalf("Within(%v, %v) = %v, want %v", tc.base, tc.cur, got, tc.want)
		}
	}
	exact := Band{}
	if exact.Within(1, 1.000001) {
		t.Fatal("zero band accepted a drifted value")
	}
	if !exact.Within(3, 3) {
		t.Fatal("zero band rejected equality")
	}
}

// FuzzLoadBaseline: the committed-baseline reader never panics, and a
// document it accepts is one the gate can work with — current schema, at
// least one fingerprint — that survives a write and a re-read unchanged, so
// `-baseline record` after `-baseline check` can never drift a file.
func FuzzLoadBaseline(f *testing.F) {
	committed, err := os.ReadFile("../../../baselines/default.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	var small bytes.Buffer
	if err := WriteBaseline(&small, testBaseline()); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Add([]byte(`{"schema":1,"fingerprints":[{"algorithm":"b"},{"algorithm":"a","knee_rate":1e400}]}`))
	f.Add([]byte(`{"schema":2,"fingerprints":null}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		b, err := LoadBaseline(bytes.NewReader(doc))
		if err != nil {
			return
		}
		if b.Schema != BaselineSchema || len(b.Fingerprints) == 0 {
			t.Fatalf("accepted schema %d with %d fingerprints", b.Schema, len(b.Fingerprints))
		}
		var out bytes.Buffer
		if err := WriteBaseline(&out, b); err != nil {
			t.Fatalf("accepted baseline does not serialize: %v", err)
		}
		again, err := LoadBaseline(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written baseline does not load: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("round trip changed the baseline:\n%+v\n%+v", b, again)
		}
	})
}
