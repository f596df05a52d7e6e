// Package experiments regenerates every figure and theorem-level claim of
// the paper as a reproducible program artifact. The paper is a theory paper
// — its "evaluation" is four figures plus the lemmas and theorems of
// Sections 3 and 4 — so each experiment either re-renders a figure from a
// real simulated execution or measures the quantity a theorem bounds and
// prints it next to the bound. Each entry's Artifact field names the
// paper figure or theorem it reproduces (`paper exp -list` prints the
// index; docs/EXPERIMENTS.md shows how to run them); bench_test.go's
// BenchmarkExperiments times each one.
//
// The tabulated experiments are rows of one shape (sweep.go: intro, column
// headers, swept values, a point function, outro) rendered by one function;
// the narrative ones (E1, E2, E3, E13) and the tables the row form does not
// shorten (E6, E12, E14) are plain functions. Both reports — every
// experiment, quick and full — are pinned byte for byte by
// TestExperimentGoldens.
//
// Every experiment supports a Quick mode (reduced sizes) used by the test
// suite; the full mode is what `paper exp` and the benchmark run.
package experiments

import (
	"fmt"
	"strings"
)

// Config controls experiment scale.
type Config struct {
	// Quick reduces problem sizes so the whole suite runs in seconds (used
	// by tests). Full mode is the default for the CLI and benchmarks.
	Quick bool
}

// Experiment is one reproducible artifact.
type Experiment struct {
	// ID is the experiment identifier (E1..E14).
	ID string
	// Title is a one-line description.
	Title string
	// Artifact names the paper artifact being reproduced.
	Artifact string
	// Run executes the experiment and returns its rendered report.
	Run func(cfg Config) (string, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Communication DAG of one inc and its linearization", Artifact: "Figures 1 and 2", Run: E1},
		{ID: "E2", Title: "Adversary's view: candidate communication-list lengths", Artifact: "Figure 3", Run: E2},
		{ID: "E3", Title: "Communication tree structure and identifier pools", Artifact: "Figure 4", Run: E3},
		{ID: "E4", Title: "Lower bound: adversarial bottleneck vs k(n) for every algorithm", Artifact: "Lower Bound Theorem", Run: E4},
		{ID: "E5", Title: "Upper bound: tree-counter bottleneck scales as O(k)", Artifact: "Bottleneck Theorem", Run: E5},
		{ID: "E6", Title: "Bottleneck comparison across all counters and sizes", Artifact: "Section 1 motivation / related work", Run: E6},
		{ID: "E7", Title: "Hot Spot Lemma holds on every implementation", Artifact: "Hot Spot Lemma", Run: E7},
		{ID: "E8", Title: "Per-lemma measured maxima vs stated bounds (tree counter)", Artifact: "Section 4 lemmas", Run: E8},
		{ID: "E9", Title: "Ablation: retirement threshold", Artifact: "Section 4 design choice", Run: E9},
		{ID: "E10", Title: "Concurrency: combining and diffraction relieve hot spots", Artifact: "Related work (YTL, GVW, SZ)", Run: E10},
		{ID: "E11", Title: "Quorum systems: quorum size vs bottleneck load", Artifact: "Related work (quorum systems)", Run: E11},
		{ID: "E12", Title: "Message sizes stay at O(log n) bits", Artifact: "Section 4 message-length remark", Run: E12},
		{ID: "E13", Title: "Linearizability under concurrency: tree counter vs counting network", Artifact: "Related work [HSW]", Run: E13},
		{ID: "E14", Title: "Bottleneck trajectory: the O(k) plateau forming mid-run", Artifact: "Bottleneck Theorem (mechanism view)", Run: E14},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment and concatenates the reports.
func RunAll(cfg Config) (string, error) {
	var b strings.Builder
	for _, e := range All() {
		out, err := e.Run(cfg)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(&b, "=== %s: %s (%s) ===\n%s\n", e.ID, e.Title, e.Artifact, out)
	}
	return b.String(), nil
}
