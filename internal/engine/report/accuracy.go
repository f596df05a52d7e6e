// Accuracy analysis: the accuracy study's comparison of exact counters
// against the ε-approximate family. The study (loadgen -study accuracy)
// runs the same open-loop rate ramp over a set of exact reference
// algorithms and every approximate algorithm at a ladder of error bounds,
// verification on everywhere; this file turns the sweep rows into the
// sustained-throughput-vs-ε digest and the verdict that answers the
// study's question — what does exactness cost, measured? The paper proves
// every exact counter has an Ω(k) bottleneck; the approximate schemes are
// the constructive other side of that coin, and the verdict pins that they
// actually cash it in: each one, at its default claimed ε, must sustain at
// least AccuracyTarget times the best exact knee.

package report

import (
	"fmt"
	"strings"
)

// AccuracyTarget is the speedup multiple the study's verdict demands of
// every approximate algorithm at its default ε, relative to the best exact
// knee on the same grid.
const AccuracyTarget = 2.0

// AccuracyCell is one (algorithm, ε) cell of the accuracy study.
type AccuracyCell struct {
	// Algo names the algorithm; Epsilon is the claimed error bound the
	// cell ran under (0 = an exact reference cell).
	Algo    string  `json:"algo"`
	Epsilon float64 `json:"epsilon,omitempty"`
	// Default marks the cell running at the algorithm's own default ε —
	// the claim the verdict gates on.
	Default bool `json:"default,omitempty"`
	// Sustained is the cell's sustained offered rate: the saturation knee
	// when the ramp found one, otherwise the highest offered rate the run
	// absorbed (its last rate bucket) — the run never saturated.
	Sustained float64 `json:"sustained"`
	Saturated bool    `json:"saturated"`
	// MsgsPerOp is the measured message cost — the quantity the paper
	// counts, and the currency ε buys it down in.
	MsgsPerOp float64 `json:"msgs_per_op"`
	// Violations/OutOfBound/MaxRelError come from the cell's verification:
	// a cell whose values leave the claimed ε bracket fails the study.
	Violations  int     `json:"violations"`
	OutOfBound  int     `json:"out_of_bound,omitempty"`
	MaxRelError float64 `json:"max_rel_error,omitempty"`
	// Speedup is Sustained over the best exact cell's Sustained
	// (approximate cells only).
	Speedup float64 `json:"speedup,omitempty"`
	// Skipped carries the failure reason of a cell that did not run.
	Skipped string `json:"skipped,omitempty"`
}

// AccuracyAnalysis is the study's digest: every cell in grid order, the
// best exact reference, and the machine-checkable verdict.
type AccuracyAnalysis struct {
	Cells []AccuracyCell `json:"cells"`
	// BestExact identifies the strongest exact reference cell.
	BestExact          string  `json:"best_exact"`
	BestExactSustained float64 `json:"best_exact_sustained"`
	// Target is the demanded speedup multiple (AccuracyTarget).
	Target float64 `json:"target"`
	// Pass reports the verdict: every approximate algorithm's default-ε
	// cell ran, verified within its claimed ε, and sustained at least
	// Target times the best exact knee.
	Pass bool `json:"pass"`
	// Verdict is the human-readable one-line verdict ("exact-vs-approx:
	// ..."); its prefix is stable because CI greps it.
	Verdict string `json:"verdict"`
}

// AnalyzeAccuracy digests the accuracy study's rows. defaults maps each
// approximate algorithm to its default claimed ε (registry.DefaultEpsilon);
// rows of algorithms absent from the map are the exact references. Rows and
// cells correspond one to one, in row order.
func AnalyzeAccuracy(rows []SweepRow, defaults map[string]float64) AccuracyAnalysis {
	a := AccuracyAnalysis{Target: AccuracyTarget}
	for _, r := range rows {
		c := AccuracyCell{Algo: r.Algorithm, Skipped: r.Skipped}
		if v := r.Verification; v != nil {
			c.Epsilon = v.Epsilon
			c.Violations = v.Violations
			c.OutOfBound = v.OutOfBound
			c.MaxRelError = v.MaxRelError
		}
		if d, ok := defaults[r.Algorithm]; ok && c.Epsilon == d {
			c.Default = true
		}
		if r.Skipped == "" {
			c.MsgsPerOp = r.MessagesPerOp
			c.Sustained, c.Saturated = sustainedRate(r)
		}
		a.Cells = append(a.Cells, c)
	}
	for i := range a.Cells {
		c := &a.Cells[i]
		if c.Skipped != "" || c.Epsilon != 0 {
			continue
		}
		if c.Sustained > a.BestExactSustained {
			a.BestExact, a.BestExactSustained = c.Algo, c.Sustained
		}
	}

	a.Pass = a.BestExactSustained > 0
	var claims []string
	for i := range a.Cells {
		c := &a.Cells[i]
		if c.Epsilon == 0 {
			continue
		}
		if a.BestExactSustained > 0 && c.Skipped == "" {
			c.Speedup = c.Sustained / a.BestExactSustained
		}
		if !c.Default {
			continue
		}
		ok := c.Skipped == "" && c.Violations == 0 && c.Speedup >= a.Target
		if !ok {
			a.Pass = false
		}
		claims = append(claims, fmt.Sprintf("%s(ε=%g) %.1fx", c.Algo, c.Epsilon, c.Speedup))
	}
	if len(claims) == 0 {
		a.Pass = false
		claims = append(claims, "no default-ε approximate cells")
	}
	word := "FAIL"
	if a.Pass {
		word = "PASS"
	}
	a.Verdict = fmt.Sprintf("exact-vs-approx: %s — target ≥ %.1fx best exact knee (%s %.4f): %s",
		word, a.Target, a.BestExact, a.BestExactSustained, strings.Join(claims, ", "))
	return a
}

// sustainedRate is the rate a cell demonstrably sustained: the knee's
// offered rate when the ramp saturated the algorithm, otherwise the
// highest offered rate of any bucket — the run absorbed everything the
// ramp offered.
func sustainedRate(r SweepRow) (rate float64, saturated bool) {
	if r.Knee != nil {
		return r.Knee.OfferedRate, true
	}
	for _, b := range r.Buckets {
		if b.OfferedRate > rate {
			rate = b.OfferedRate
		}
	}
	return rate, false
}

// RenderAccuracy returns the study's text digest: one line per cell plus
// the verdict. The verdict line is the study's machine-checkable claim
// (CI greps "exact-vs-approx"), so its prefix is stable.
func RenderAccuracy(a AccuracyAnalysis) string {
	var b strings.Builder
	b.WriteString("accuracy study: sustained offered rate (ops/tick) by algorithm and claimed ε\n")
	fmt.Fprintf(&b, "  %-16s %-12s %10s %10s %8s %7s %8s %12s\n",
		"algo", "guarantee", "sustained", "saturated", "msg/op", "viol", "speedup", "max_rel_err")
	for _, c := range a.Cells {
		guar := "exact"
		if c.Epsilon != 0 {
			guar = fmt.Sprintf("ε=%g", c.Epsilon)
			if c.Default {
				guar += "*"
			}
		}
		if c.Skipped != "" {
			fmt.Fprintf(&b, "  %-16s %-12s SKIPPED: %s\n", c.Algo, guar, c.Skipped)
			continue
		}
		sat := "no"
		if c.Saturated {
			sat = "yes"
		}
		speed := "-"
		if c.Speedup > 0 {
			speed = fmt.Sprintf("%.1fx", c.Speedup)
		}
		fmt.Fprintf(&b, "  %-16s %-12s %10.4f %10s %8.3f %7d %8s %12.4f\n",
			c.Algo, guar, c.Sustained, sat, c.MsgsPerOp, c.Violations, speed, c.MaxRelError)
	}
	fmt.Fprintf(&b, "  (* = the algorithm's default claimed ε, the cells the verdict gates on)\n")
	fmt.Fprintf(&b, "verdict %s\n", a.Verdict)
	return b.String()
}
