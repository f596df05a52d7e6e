package experiments

import (
	"slices"

	"distcount/internal/counter"
	"distcount/internal/registry"
	"distcount/internal/verify"
)

// E7 verifies the Hot Spot Lemma on every implementation: over full
// canonical-workload runs, the participant sets of consecutive operations
// always intersect. The lemma is the paper's foundation — it holds for any
// correct counter because the successor must learn about the predecessor's
// increment — so a violation would mean a broken implementation (or a
// broken counter semantics), and the experiment reports the minimum
// observed intersection breadth as a bonus diagnostic.
func E7(cfg Config) (string, error) {
	n := pick(cfg, 64, 16)
	return sweep[string]{
		intro:  "Hot Spot Lemma: consecutive operations' participant sets intersect (I_p ∩ I_q != ∅)\n\n",
		header: []string{"algorithm", "ops", "hot-spot", "min |I_i ∩ I_{i+1}|"},
		over:   registry.Names(),
		point: func(name string, row func(...any)) error {
			c, err := registry.New(name, n)
			if err != nil {
				return err
			}
			order := counter.RandomOrder(c.N(), 0xE7)
			res, err := counter.RunSequence(c, order)
			if err != nil {
				return err
			}
			status := "ok"
			if err := verify.HotSpot(res); err != nil {
				status = "VIOLATED: " + err.Error()
			}
			row(name, len(order), status, slices.Min(res.Shared))
			return nil
		},
	}.render()
}
