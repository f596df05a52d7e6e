package report

import (
	"math"
	"strings"
	"testing"

	"distcount/internal/engine"
	"distcount/internal/verify"
)

// accRow builds one synthetic accuracy-study row. kneeRate > 0 makes the
// cell saturated at that offered rate; otherwise the cell absorbed the full
// ramp and maxBucket is its highest offered rate.
func accRow(algo string, eps float64, kneeRate, maxBucket float64, violations int) SweepRow {
	res := &engine.Result{
		Algorithm:     algo,
		Scenario:      "ramprate",
		Mode:          "open",
		MessagesPerOp: 2,
		Verification:  &verify.Report{Epsilon: eps, Violations: violations},
	}
	if kneeRate > 0 {
		res.Knee = &engine.Knee{OfferedRate: kneeRate}
	} else {
		res.Buckets = []engine.RateBucket{{OfferedRate: maxBucket / 2}, {OfferedRate: maxBucket}}
	}
	return SweepRow{Result: res}
}

var accDefaults = map[string]float64{"approx-a": 0.05, "approx-b": 0.25}

// TestAnalyzeAccuracyPass: best-exact selection across saturated and
// unsaturated references, sustained-rate extraction from knee vs buckets,
// default-ε detection, and a passing verdict.
func TestAnalyzeAccuracyPass(t *testing.T) {
	rows := []SweepRow{
		accRow("central", 0, 1.0, 0, 0),
		accRow("cnet", 0, 1.5, 0, 0),
		accRow("approx-a", 0.05, 0, 8.0, 0), // default, never saturated: 8/1.5 = 5.3x
		accRow("approx-a", 0.25, 0, 8.0, 0), // non-default, not gated
		accRow("approx-b", 0.25, 4.5, 0, 0), // default, saturated: 3.0x
	}
	a := AnalyzeAccuracy(rows, accDefaults)
	if a.BestExact != "cnet" || a.BestExactSustained != 1.5 {
		t.Fatalf("best exact = %s %.2f, want cnet 1.50", a.BestExact, a.BestExactSustained)
	}
	if len(a.Cells) != 5 {
		t.Fatalf("%d cells, want 5", len(a.Cells))
	}
	if c := a.Cells[2]; !c.Default || c.Saturated || math.Abs(c.Speedup-8.0/1.5) > 1e-9 {
		t.Fatalf("unsaturated default cell wrong: %+v", c)
	}
	if c := a.Cells[3]; c.Default {
		t.Fatalf("ε=0.25 is not approx-a's default: %+v", c)
	}
	if c := a.Cells[4]; !c.Default || !c.Saturated || c.Speedup != 3.0 {
		t.Fatalf("saturated default cell wrong: %+v", c)
	}
	if !a.Pass {
		t.Fatalf("verdict should pass: %s", a.Verdict)
	}
	if !strings.HasPrefix(a.Verdict, "exact-vs-approx: PASS") {
		t.Fatalf("verdict prefix drifted: %q", a.Verdict)
	}

	out := RenderAccuracy(a)
	for _, frag := range []string{"ε=0.05*", "verdict exact-vs-approx: PASS", "best exact knee (cnet 1.5000)"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("accuracy digest missing %q:\n%s", frag, out)
		}
	}
}

// TestAnalyzeAccuracyFailures: each way a default-ε cell can sink the
// verdict — too slow, verification violations, or skipped — and the
// degenerate grids (no exact reference, no default cells).
func TestAnalyzeAccuracyFailures(t *testing.T) {
	exact := accRow("central", 0, 1.0, 0, 0)
	cases := []struct {
		name string
		rows []SweepRow
	}{
		{"below target", []SweepRow{exact, accRow("approx-a", 0.05, 1.5, 0, 0)}},
		{"violations", []SweepRow{exact, accRow("approx-a", 0.05, 4.0, 0, 2)}},
		{"skipped default", []SweepRow{exact, {Skipped: "boom",
			Result: &engine.Result{Algorithm: "approx-a", Verification: &verify.Report{Epsilon: 0.05}}}}},
		{"no exact reference", []SweepRow{accRow("approx-a", 0.05, 4.0, 0, 0)}},
		{"no default cells", []SweepRow{exact, accRow("approx-a", 0.1, 4.0, 0, 0)}},
	}
	for _, tc := range cases {
		a := AnalyzeAccuracy(tc.rows, accDefaults)
		if a.Pass {
			t.Errorf("%s: verdict passed, want fail: %s", tc.name, a.Verdict)
		}
		if !strings.HasPrefix(a.Verdict, "exact-vs-approx: FAIL") {
			t.Errorf("%s: verdict prefix drifted: %q", tc.name, a.Verdict)
		}
	}
}
