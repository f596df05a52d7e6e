package experiments

import (
	"fmt"

	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/sim"
)

// E8 tabulates every Section 4 lemma of the paper against measurements of
// the tree counter over the canonical workload:
//
//	Retirement Lemma          max retirements of one node in one op  <= 1
//	Grow Old Lemma            max msgs of a non-retiring node per op <= 4
//	Number of Retirements     per-level max retirements              <= k^(k-i)-1
//	Inner Node Work Lemma     max per-processor load                 O(k)
//	Leaf Node Work Lemma      max leaf-role load                     = 2
func E8(cfg Config) (string, error) {
	ks := pick(cfg, []int{2, 3, 4}, []int{2, 3})
	return sweep[int]{
		intro:  "Section 4 lemmas: measured maxima vs stated bounds\n\n",
		header: []string{"k", "retire/op (<=1)", "grow-old msgs (<=4)", "max m_p", "m_p budget 2(8k+10)+2", "max leaf load (=2)", "violations"},
		over:   ks,
		point: func(k int, row func(...any)) error {
			c := core.New(k)
			t, err := RunTree(c, counter.RandomOrder(c.N(), 0xE8))
			if err != nil {
				return err
			}
			maxLeaf := int64(0)
			for p := 1; p <= c.N(); p++ {
				maxLeaf = max(maxLeaf, c.LeafLoad(sim.ProcID(p)))
			}
			row(k, c.RetirePerOpMax(), c.GrowOldMax(), t.Load.MaxLoad, 2*(8*k+10)+2, maxLeaf, t.Violations)
			return nil
		},
		// Per-level retirement budgets for the largest k in the sweep.
		outro: func([][]any) (string, error) {
			k := ks[len(ks)-1]
			t, err := RunTree(core.New(k), nil)
			if err != nil {
				return "", err
			}
			return sweep[Level]{
				intro:  fmt.Sprintf("\nNumber of Retirements Lemma at k=%d (budget k^(k-i)-1 per level-i node):\n", k),
				header: []string{"level i", "max retirements", "budget"},
				over:   Levels(t.Nodes()),
				point: func(l Level, row func(...any)) error {
					if l.MaxRetired == 0 {
						return nil // the level-k nodes (budget 0): nothing to tabulate
					}
					level := l.Nodes[0].Level
					budget := 1
					for range k - level {
						budget *= k
					}
					row(level, l.MaxRetired, budget-1)
					return nil
				},
			}.render()
		},
	}.render()
}
