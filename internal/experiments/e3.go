package experiments

import (
	"fmt"
	"strings"

	"distcount/internal/core"
)

// E3 reproduces Figure 4 — the communication tree structure — together with
// the identifier/pool scheme of Section 4, and then runs the canonical
// workload to annotate each level with its observed retirement counts
// (Number of Retirements Lemma in action).
func E3(cfg Config) (string, error) {
	var b strings.Builder
	for _, k := range pick(cfg, []int{2, 3}, []int{2}) {
		c := core.New(k)
		fmt.Fprintf(&b, "Figure 4 — communication tree for k=%d: n = k·k^k = %d leaves, levels 0..%d inner\n", k, c.N(), k)

		// Structure before the run: initial processors and pools per level.
		for level, l := range Levels(c.Nodes()) {
			fmt.Fprintf(&b, "  level %d: %d node(s), pool size %d each; initial ids: ", level, len(l.Nodes), l.Nodes[0].PoolSize)
			for _, nd := range l.Nodes[:min(len(l.Nodes), 8)] {
				fmt.Fprintf(&b, "%d ", nd.Cur)
			}
			if len(l.Nodes) > 8 {
				fmt.Fprintf(&b, "... (last %d)", l.Nodes[len(l.Nodes)-1].Cur)
			}
			b.WriteByte('\n')
		}

		// Run the canonical workload and annotate retirements.
		t, err := RunTree(c, nil)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "after %d ops: %d retirements (budget per level-i node: k^(k-i)-1), %d forwarded, bottleneck p%d load %d\n",
			c.N(), t.Stats().Retirements, t.Stats().Forwarded, t.Load.Bottleneck, t.Load.MaxLoad)
		for level, l := range Levels(c.Nodes()) {
			fmt.Fprintf(&b, "  level %d: total retirements %d, max per node %d\n", level, l.Retired, l.MaxRetired)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
