package experiments

import (
	"fmt"
	"strings"

	"distcount/internal/adversary"
	"distcount/internal/bound"
	"distcount/internal/registry"
)

// E4 measures the Lower Bound Theorem: for every implemented counter, the
// adversarial workload (one inc per processor, longest-communication-list
// order) produces a bottleneck of at least k, where k·k^k = n. Small sizes
// run the full adversary with the complete proof trace; the larger size
// runs the sampled adversary (bottleneck measurement only).
//
// The bound column is what the theorem guarantees for ANY algorithm; the
// measured column shows how far above it each algorithm lands — Θ(n) for
// the centralized and token-ring counters, Θ(√n) for the grid quorum,
// O(k·polylog) territory for the counting network, and O(k) for the
// paper's tree.
func E4(cfg Config) (string, error) {
	var failures []string
	return sweep[int]{
		intro: "Lower Bound Theorem: every algorithm's bottleneck >= k(n) under the adversarial canonical workload\n" +
			fmt.Sprintf("(closed form: k(81)=%d, k(1024)=%d, k(15625)=%d, k(279936)=%d; k(n) ~ ln n/ln ln n: k_real(10^6)=%.2f)\n\n",
				bound.SolveK(81), bound.SolveK(1024), bound.SolveK(15625), bound.SolveK(279936), bound.KReal(1e6)),
		header: []string{"algorithm", "n", "k(n)", "bottleneck m_b", "m_b/k", "mode", "proof-checks"},
		over:   pick(cfg, []int{8, 81, 1024}, []int{8, 81}),
		point: func(n int, row func(...any)) error {
			// The full adversary probes every remaining candidate at every
			// step; beyond the small sizes only the sampled one is affordable.
			var opts []adversary.Option
			mode := "full"
			if n > 81 {
				opts = append(opts, adversary.SampleSize(8))
				mode = "sampled(8)"
			}
			for _, name := range registry.Names() {
				c, err := registry.New(name, n)
				if err != nil {
					return err
				}
				res, err := adversary.Run(c, opts...)
				if err != nil {
					return fmt.Errorf("E4: %s n=%d: %w", name, n, err)
				}
				checks := "-"
				if res.Full {
					checks = "ok"
					if err := adversary.VerifyProofStructure(res); err != nil {
						checks = "FAIL"
						failures = append(failures, fmt.Sprintf("%s n=%d: %v", name, n, err))
					}
				}
				k := res.BoundK
				row(name, c.N(), k, res.Summary.MaxLoad, float64(res.Summary.MaxLoad)/float64(k), mode, checks)
				if res.Summary.MaxLoad < int64(k) {
					failures = append(failures,
						fmt.Sprintf("%s n=%d: bottleneck %d below bound %d", name, n, res.Summary.MaxLoad, k))
				}
			}
			return nil
		},
		outro: func([][]any) (string, error) {
			if len(failures) > 0 {
				return fmt.Sprintf("\nFAILURES:\n  %s\n", strings.Join(failures, "\n  ")),
					fmt.Errorf("E4: %d bound violations", len(failures))
			}
			return "\nall algorithms meet the bound; proof structure verified on all full-mode runs\n", nil
		},
	}.render()
}
