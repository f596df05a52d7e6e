package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a, in the
// direction the metric improves; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if d.name == "failed_op_share" {
		return b - a // its bound is absolute
	}
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	if d.better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// readResults loads a result file: the suite file a run over all workloads
// writes, or the file one workload writes (-workload W -o FILE). A file
// without results, or holding a workload that failed its output checks, is
// an error: there is nothing in it to compare.
func readResults(path string) (SuiteResult, error) {
	var suite SuiteResult
	if err := readJSON(path, &suite); err != nil {
		return suite, err
	}
	if len(suite.Results) == 0 {
		var one Result
		if err := readJSON(path, &one); err != nil {
			return suite, err
		}
		if one.Workload == "" {
			return suite, fmt.Errorf("%s holds no results", path)
		}
		suite = SuiteResult{Env: one.Env, Traced: one.Traced, Results: []*Result{&one}}
	}
	for _, r := range suite.Results {
		if !r.Correct {
			return suite, fmt.Errorf("%s: workload %s failed its output checks %v", path, r.Workload, r.Problems)
		}
	}
	return suite, nil
}

func workloadNames(s SuiteResult) []string {
	names := make([]string, len(s.Results))
	for i, r := range s.Results {
		names[i] = r.Workload
	}
	slices.Sort(names)
	return names
}

// compareFiles prints, per workload and end-to-end metric, both medians with
// quartiles and the relative change from file a to file b. It returns false
// when any pair worsens beyond its bound. A pair whose repetitions spread
// wider than the bound on either side is labelled unresolved: the run
// cannot tell "unchanged" from a change of that size. When both files come
// from one commit and seed, every simulated metric and, in a traced pair,
// every count metric must repeat exactly, and a difference fails the
// comparison; across commits a count that differs is only listed. Files that
// do not hold the same workloads, or lack a metric their workload defines,
// are refused.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Env.Scale != b.Env.Scale {
		return false, fmt.Errorf("scales differ (%g and %g): the op counts are not the same", a.Env.Scale, b.Env.Scale)
	}
	if na, nb := workloadNames(a), workloadNames(b); !slices.Equal(na, nb) {
		return false, fmt.Errorf("the files hold different workloads: %v and %v", na, nb)
	}
	byName := make(map[string]*Result)
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	sameRun := a.Env.Commit == b.Env.Commit && a.Env.Commit != "unknown" && a.Env.Seed == b.Env.Seed
	fmt.Fprintf(w, "# a: %s (commit %s, seed %d)\n# b: %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	if sameRun {
		fmt.Fprintln(w, "# same commit and seed: simulated and count metrics must repeat exactly")
	}
	fmt.Fprintf(w, "%-22s %-24s %14s %27s %14s %27s %9s  %s\n",
		"workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "change", "verdict")
	ok := true
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		for _, d := range endToEnd {
			if !d.appliesTo(ra.Workload) {
				continue
			}
			// Peak memory of a traced run is the tracer's, not the program's.
			if d.name == "peak_rss_mb" && (ra.Traced || rb.Traced) {
				continue
			}
			sa, haveA := ra.Metrics[d.name]
			sb, haveB := rb.Metrics[d.name]
			if !haveA || !haveB {
				return false, fmt.Errorf("workload %s: metric %s is missing (in %s: %v, in %s: %v)",
					ra.Workload, d.name, pathA, haveA, pathB, haveB)
			}
			worse := worsening(d, sa.Value, sb.Value)
			verdict := "ok"
			switch {
			case sameRun && strings.HasPrefix(d.name, "sim_") && sa.Value != sb.Value:
				verdict = "NOT REPEATABLE (same commit and seed)"
				ok = false
			case worse > d.bound:
				verdict = fmt.Sprintf("REGRESSION (bound %g)", d.bound)
				ok = false
			case sa.Value == sb.Value && sa.Q1 == sa.Q3:
				verdict = "identical"
			case iqrShare(sa) > d.bound || iqrShare(sb) > d.bound:
				verdict = "unresolved (spread exceeds bound)"
			}
			change := 0.0
			if sa.Value != 0 {
				change = 100 * (sb.Value - sa.Value) / sa.Value
			}
			fmt.Fprintf(w, "%-22s %-24s %14.6g [%12.6g, %12.6g] %14.6g [%12.6g, %12.6g] %+8.2f%%  %s\n",
				ra.Workload, d.name, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3, change, verdict)
		}
		if !ra.Traced || !rb.Traced || !slices.Contains(simWorkloads, ra.Workload) {
			continue
		}
		for _, d := range layerMetrics {
			va, vb := ra.Metrics[d.name].Value, rb.Metrics[d.name].Value
			if !d.count || va == vb {
				continue
			}
			verdict := "count differs"
			if sameRun {
				verdict = "NOT REPEATABLE (same commit and seed)"
				ok = false
			}
			fmt.Fprintf(w, "%-22s %-24s %14.6g %27s %14.6g %27s %9s  %s\n",
				ra.Workload, d.name, va, "", vb, "", "", verdict)
		}
	}
	return ok, nil
}
