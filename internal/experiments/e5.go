package experiments

import (
	"fmt"
	"slices"

	"distcount/internal/bound"
	"distcount/internal/core"
)

// E5 measures the Bottleneck Theorem — the matching upper bound: over the
// canonical workload, the tree counter's maximum per-processor load is O(k)
// where n = k·k^k. The series sweeps k and reports the measured bottleneck,
// its ratio to k (the implementation constant, which must stay flat as n
// grows by orders of magnitude), and the lower bound it matches.
func E5(cfg Config) (string, error) {
	ks := pick(cfg, []int{2, 3, 4, 5}, []int{2, 3})
	return sweep[int]{
		intro:  "Bottleneck Theorem: tree-counter bottleneck is O(k) — m_b/k must stay bounded while n explodes\n\n",
		header: []string{"k", "n=k^(k+1)", "lower bound k", "bottleneck m_b", "m_b/k", "mean load", "gini", "retirements", "forwarded"},
		over:   ks,
		point: func(k int, row func(...any)) error {
			t, err := RunTree(core.New(k), nil)
			if err != nil {
				return err
			}
			row(k, t.N(), bound.SolveK(t.N()), t.Load.MaxLoad, float64(t.Load.MaxLoad)/float64(k),
				t.Load.Mean, t.Load.Gini, t.Stats().Retirements, t.Stats().Forwarded)
			return nil
		},
		outro: func(rows [][]any) (string, error) {
			ratios := column[float64](rows, 4)
			return fmt.Sprintf("\nm_b/k across the sweep: min %.1f, max %.1f (flat ratio = the theorem's O(k); n grew %dx)\n",
				slices.Min(ratios), slices.Max(ratios), bound.SizeFor(ks[len(ks)-1])/bound.SizeFor(ks[0])), nil
		},
	}.render()
}
