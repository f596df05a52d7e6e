// Skew analysis: the key-skew study's comparison of shard-assignment
// policies across zipf exponents. The study (loadgen -study skew) runs the
// same keyed workload under several static algorithm assignments and one
// adaptive assignment (hash homes plus hot-key migration); this file turns
// the sweep rows into the aggregate-throughput-vs-skew curves and the
// per-skew verdicts that answer the study's question — where does adaptive
// placement beat every static choice?

package report

import (
	"fmt"
	"strings"
)

// SkewAssignment is one shard-assignment policy's outcome at one zipf
// exponent.
type SkewAssignment struct {
	// Label names the policy: "static:<algo>" or
	// "adaptive(<algo>-><algo>)".
	Label string `json:"label"`
	// Adaptive marks the migration-enabled policy.
	Adaptive bool `json:"adaptive,omitempty"`
	// Throughput is the run's aggregate measured throughput.
	Throughput float64 `json:"throughput"`
	// Migrations is the number of hot-key cutovers the run performed.
	Migrations int `json:"migrations"`
	// Verified reports whether verification ran and found no violations.
	Verified bool `json:"verified"`
	// Skipped carries the failure reason of a cell that did not run.
	Skipped string `json:"skipped,omitempty"`
}

// SkewPoint is one zipf exponent's cross-policy comparison.
type SkewPoint struct {
	ZipfS       float64          `json:"zipf_s"`
	Assignments []SkewAssignment `json:"assignments"`
	// BestStatic and BestStaticThroughput identify the strongest static
	// assignment at this skew.
	BestStatic           string  `json:"best_static"`
	BestStaticThroughput float64 `json:"best_static_throughput"`
	// Adaptive is the adaptive assignment's throughput (0 when the study
	// ran none), and AdaptiveWins whether it matched or beat every static
	// assignment.
	Adaptive     float64 `json:"adaptive"`
	AdaptiveWins bool    `json:"adaptive_wins"`
}

// SkewAnalysis is the study's digest, one point per zipf exponent in
// first-seen row order.
type SkewAnalysis struct {
	Points []SkewPoint `json:"points"`
}

// skewLabel names a row's assignment policy.
func skewLabel(r SweepRow) string {
	if r.Migrate != "" {
		return fmt.Sprintf("adaptive(%s->%s)", r.ShardAlgo, r.Migrate)
	}
	return "static:" + r.ShardAlgo
}

// AnalyzeSkew groups the sweep rows of a key-skew study by zipf exponent
// and compares the assignment policies at each: every static policy against
// the adaptive one. Rows are grouped by KeyZipfS in first-seen order, so
// the analysis follows the study's grid order deterministically.
func AnalyzeSkew(rows []SweepRow) SkewAnalysis {
	var a SkewAnalysis
	at := map[float64]int{}
	for _, r := range rows {
		i, ok := at[r.KeyZipfS]
		if !ok {
			i = len(a.Points)
			at[r.KeyZipfS] = i
			a.Points = append(a.Points, SkewPoint{ZipfS: r.KeyZipfS})
		}
		as := SkewAssignment{
			Label:    skewLabel(r),
			Adaptive: r.Migrate != "",
			Skipped:  r.Skipped,
		}
		if r.Skipped == "" {
			as.Throughput = r.Throughput
			as.Migrations = len(r.Result.Migrations)
			as.Verified = r.Verification != nil && r.Verification.Violations == 0
		}
		a.Points[i].Assignments = append(a.Points[i].Assignments, as)
	}
	for i := range a.Points {
		p := &a.Points[i]
		for _, as := range p.Assignments {
			if as.Skipped != "" {
				continue
			}
			if as.Adaptive {
				p.Adaptive = as.Throughput
			} else if as.Throughput > p.BestStaticThroughput {
				p.BestStatic, p.BestStaticThroughput = as.Label, as.Throughput
			}
		}
		p.AdaptiveWins = p.Adaptive > 0 && p.Adaptive >= p.BestStaticThroughput
	}
	return a
}

// RenderSkew returns the study's text digest: one line per (skew, policy)
// cell plus a verdict per skew level. The verdict line is the study's
// machine-checkable claim (CI greps it), so its shape is stable:
// "verdict s=<s>: adaptive wins (<adaptive> >= best static <static>)" or
// "verdict s=<s>: static wins (...)".
func RenderSkew(a SkewAnalysis) string {
	var b strings.Builder
	b.WriteString("key-skew study: aggregate throughput (ops/tick) by zipf exponent and shard assignment\n")
	for _, p := range a.Points {
		fmt.Fprintf(&b, "  s=%.1f\n", p.ZipfS)
		for _, as := range p.Assignments {
			if as.Skipped != "" {
				fmt.Fprintf(&b, "    %-28s SKIPPED: %s\n", as.Label, as.Skipped)
				continue
			}
			extra := ""
			if as.Migrations > 0 {
				extra = fmt.Sprintf(", %d migration(s)", as.Migrations)
			}
			check := "verify failed"
			if as.Verified {
				check = "verified"
			}
			fmt.Fprintf(&b, "    %-28s %.4f (%s%s)\n", as.Label, as.Throughput, check, extra)
		}
		switch {
		case p.Adaptive == 0:
			fmt.Fprintf(&b, "    verdict s=%.1f: no adaptive cell\n", p.ZipfS)
		case p.AdaptiveWins:
			fmt.Fprintf(&b, "    verdict s=%.1f: adaptive wins (%.4f >= best static %s %.4f)\n",
				p.ZipfS, p.Adaptive, p.BestStatic, p.BestStaticThroughput)
		default:
			fmt.Fprintf(&b, "    verdict s=%.1f: static wins (%s %.4f > adaptive %.4f)\n",
				p.ZipfS, p.BestStatic, p.BestStaticThroughput, p.Adaptive)
		}
	}
	return b.String()
}
