package experiments

import (
	"fmt"
	"strings"

	"distcount/internal/core"
	"distcount/internal/sim"
)

// E12 measures the paper's message-size remark: "Note that in this way we
// were able to keep the length of messages as short as O(log n) bits." The
// tree protocol's payloads carry at most three identifiers plus a tag and a
// value; the experiment runs the canonical workload across arities and
// reports the largest and average message size against log2(n).
func E12(cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("message sizes of the tree counter: O(log n) bits per message\n\n")
	fmt.Fprintf(&b, "%-3s %-9s %-9s %-16s %-16s %-12s\n", "k", "n", "log2(n)", "max msg bits", "avg msg bits", "total bits")
	for _, k := range pick(cfg, []int{2, 3, 4}, []int{2, 3}) {
		t, err := RunTree(core.New(k), nil)
		if err != nil {
			return "", err
		}
		total := t.Net().BitsTotal()
		fmt.Fprintf(&b, "%-3d %-9d %-9d %-16d %-16.1f %-12d\n", k, t.N(), sim.BitsFor(t.N()),
			t.Net().MaxMessageBits(), float64(total)/float64(t.MessagesTotal()), total)
	}
	b.WriteString("\nmax message bits grow with log n (a constant number of identifiers), not with n.\n")
	return b.String(), nil
}
