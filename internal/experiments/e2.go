package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"distcount/internal/adversary"
	"distcount/internal/core"
)

// E2 reproduces Figure 3 — "Situation before initiating an inc operation":
// the adversary's view of the communication lists of the processors that
// have not yet incremented. We run the full lower-bound adversary against
// the tree counter at n = 8 and print, for a few steps, every remaining
// candidate's hypothetical list length, the chosen (longest) one, and the
// eventual last processor q whose lists the proof's potential function
// tracks.
func E2(Config) (string, error) {
	c := core.New(2)
	res, err := adversary.Run(c)
	if err != nil {
		return "", err
	}
	if err := adversary.VerifyProofStructure(res); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "adversary vs %q, n=%d; last processor q = %v; bound k = %d\n\n",
		"ctree", c.N(), res.Last, res.BoundK)
	for i, st := range res.Steps {
		fmt.Fprintf(&b, "step %d: candidate list lengths: ", i+1)
		for _, p := range slices.Sorted(maps.Keys(st.CandidateLens)) {
			marker := ""
			if p == st.Chosen {
				marker = "*" // chosen: the longest list
			}
			if p == res.Last {
				marker += "q"
			}
			fmt.Fprintf(&b, "p%d:%d%s ", p, st.CandidateLens[p], marker)
		}
		fmt.Fprintf(&b, "-> executed p%d (L_%d=%d, l_%d=%d, f_%d=%d)\n",
			st.Chosen, i+1, st.ListLen, i+1, st.LastListLen, i+1, st.FirstAffected)
	}

	ws, lambda, err := res.WeightSeries()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\npotential function (λ=%.4f): w = %s\n", lambda, formatFloats(ws))
	fmt.Fprintf(&b, "final loads: bottleneck p%d with m_b = %d >= k = %d\n",
		res.Summary.Bottleneck, res.Summary.MaxLoad, res.BoundK)
	return b.String(), nil
}

func formatFloats(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, ", ")
}
