package experiments

import (
	"fmt"

	"distcount/internal/bound"
	"distcount/internal/counter"
	"distcount/internal/loadstat"
	"distcount/internal/registry"
)

// E6 is the cross-algorithm comparison the paper's introduction motivates:
// the bottleneck message load of every counter over the canonical workload
// (sequential regime, random order), as n sweeps the admissible sizes
// k·k^k. It charts who is a bottleneck and where the crossovers fall:
//
//   - central, combining, difftree, tokenring, quorum-majority: Θ(n);
//   - quorum-grid, quorum-wall: Θ(√n);
//   - cnet: polylog (for width ~ n);
//   - ctree (the paper): O(k) = O(log n / log log n) — the eventual winner,
//     crossing below everything as n grows.
func E6(cfg Config) (string, error) {
	sizes := pick(cfg, []int{8, 81, 1024}, []int{8, 81})
	lastN := sizes[len(sizes)-1]
	header := []string{"algorithm"}
	boundRow := []any{"[lower bound k(n)]"} // the reference row
	for _, n := range sizes {
		header = append(header, fmt.Sprintf("m_b @ n=%d", n))
		boundRow = append(boundRow, bound.SolveK(n))
	}
	tb := loadstat.NewTable(append(header, fmt.Sprintf("msgs/op @ n=%d", lastN))...)
	atLast := make(map[string]int64) // m_b at the largest size, for the narrative
	for _, name := range registry.Names() {
		row := []any{name}
		var msgsPerOp float64
		for _, n := range sizes {
			mb, perOp, err := E6Point(name, n)
			if err != nil {
				return "", err
			}
			row = append(row, mb)
			atLast[name], msgsPerOp = mb, perOp
		}
		// The trade-off column: message-optimal schemes (central: ~2) sit
		// at the top of the bottleneck column; the paper's counter pays a
		// few more messages per op to erase the bottleneck.
		tb.AddRow(append(row, msgsPerOp)...)
	}
	tb.AddRow(boundRow...)

	// Narrate the crossover against the centralized counter.
	return "bottleneck message load m_b over the canonical workload (random order), by algorithm and n\n\n" + tb.String() +
		fmt.Sprintf("\nat n=%d: ctree m_b = %d vs central m_b = %d (%.1fx lower); grid quorum m_b = %d\n",
			lastN, atLast["ctree"], atLast["central"], float64(atLast["central"])/float64(atLast["ctree"]), atLast["quorum-grid"]), nil
}

// E6Point returns the bottleneck load and the average messages per
// operation of the named algorithm over the canonical workload at size n
// (random order, fixed seed).
func E6Point(name string, n int) (int64, float64, error) {
	c, err := registry.New(name, n)
	if err != nil {
		return 0, 0, err
	}
	if _, err := counter.RunSequence(c, counter.RandomOrder(c.N(), 0xE6)); err != nil {
		return 0, 0, fmt.Errorf("E6: %s n=%d: %w", name, n, err)
	}
	mb := loadstat.SummarizeLoads(c.Net().Loads()).MaxLoad
	return mb, float64(c.MessagesTotal()) / float64(c.N()), nil
}
