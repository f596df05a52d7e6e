package experiments

import (
	"fmt"

	"distcount/internal/core"
)

// E9 ablates the tree counter's one tunable design choice: the retirement
// threshold. The paper fixes it at Θ(k) (we reconstruct 4k; the scan loses
// the constant) and the ablation shows why:
//
//   - no retirement (threshold 0/∞): the root's host degenerates into a
//     Θ(n) bottleneck — the entire point of the mechanism disappears;
//   - too aggressive (threshold 2 < k+3): nodes can retire twice within an
//     operation and pools exhaust — the Retirement and Number-of-
//     Retirements Lemmas break;
//   - 2k, 4k, 8k: all deliver O(k) bottlenecks; larger thresholds trade a
//     slightly higher bottleneck for fewer retirements (less handoff
//     traffic), with 4k the paper-faithful middle.
func E9(cfg Config) (string, error) {
	k := pick(cfg, 3, 2)
	type setting struct {
		label string
		age   int
	}
	return sweep[setting]{
		intro:  fmt.Sprintf("retirement-threshold ablation at k=%d (n=%d)\n\n", k, core.SizeForK(k)),
		header: []string{"threshold", "bottleneck m_b", "m_b/k", "retirements", "forwarded", "pool exhaustions", "lemma violations"},
		over: []setting{
			{label: "2 (reckless)", age: 2},
			{label: "k", age: k},
			{label: "2k", age: 2 * k},
			{label: "4k (paper)", age: 4 * k},
			{label: "8k", age: 8 * k},
			{label: "off", age: 0},
		},
		point: func(s setting, row func(...any)) error {
			t, err := RunTree(core.New(k, core.WithRetireAge(s.age)), nil)
			if err != nil {
				return err
			}
			row(s.label, t.Load.MaxLoad, float64(t.Load.MaxLoad)/float64(k),
				t.Stats().Retirements, t.Stats().Forwarded, t.Stats().PoolExhausted, t.Violations)
			return nil
		},
		outro: func(rows [][]any) (string, error) {
			loads := column[int64](rows, 1)
			off, paper := loads[len(loads)-1], loads[3]
			return fmt.Sprintf("\nretirement off: bottleneck %d (Θ(n)); paper threshold 4k: %d (%.1fx lower)\n",
				off, paper, float64(off)/float64(paper)), nil
		},
	}.render()
}
