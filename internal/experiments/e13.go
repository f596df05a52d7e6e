package experiments

import (
	"fmt"
	"strings"

	"distcount/internal/core"
	"distcount/internal/counters/cnet"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

// E13 steps outside the paper's sequential model to probe its related work
// [HSW]: Herlihy, Shavit & Waarts, "Linearizable counting networks". Under
// concurrent operations, a counting network remains quiescently consistent
// (each value handed out exactly once) but is NOT linearizable: a token can
// stall between its final balancer and the output-wire counter, and a much
// later operation can slip past it and take a smaller value than operations
// that have long completed. The paper's tree counter, by contrast, is
// linearizable under every schedule — the root applies operations in
// arrival order and replies directly — a property it gets "for free" from
// the same structure that yields the O(k) bound.
//
// Part 1 reconstructs HSW's stalled-token scenario deterministically with a
// scripted latency (sim.StallKindLatency): five operations A..E on a
// width-2 network; A's and C's exit messages stall, B and D complete with
// values 1 and 3, then E starts afresh and receives value 0 — smaller than
// both completed operations. The same script leaves the tree counter
// linearizable. Part 2 sweeps random schedules as a control: both counters
// stay quiescently consistent throughout.
func E13(cfg Config) (string, error) {
	var b strings.Builder

	// Part 1: the deterministic HSW scenario.
	cviol, cvals, err := E13ScriptedCNet()
	if err != nil {
		return "", err
	}
	tviol, tvals, err := E13ScriptedTree()
	if err != nil {
		return "", err
	}
	b.WriteString("part 1 — scripted stalled-token schedule (5 ops A..E, exits of A and C stalled):\n")
	fmt.Fprintf(&b, "  cnet  values A..E: %v -> linearizable: %v\n", cvals, !cviol)
	fmt.Fprintf(&b, "  ctree values A..E: %v -> linearizable: %v\n", tvals, !tviol)
	b.WriteString("  the counting network hands E a smaller value than completed ops B and D [HSW];\n")
	b.WriteString("  the tree counter's root serialization is immune to the same schedule.\n\n")

	// Part 2: randomized control sweep.
	n, seeds := pick(cfg, 32, 16), pick(cfg, 12, 6)
	treeViol, treeQuiesce, err := e13Sweep(n, seeds, func(opts ...sim.Option) startable {
		return concurrentTree{core.New(core.KForSize(n), core.WithoutChecks(), core.WithSimOptions(opts...))}
	})
	if err != nil {
		return "", err
	}
	cnetViol, cnetQuiesce, err := e13Sweep(n, seeds, func(opts ...sim.Option) startable {
		return cnet.New(n, cnet.WithWidth(8), cnet.WithSimOptions(opts...))
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "part 2 — randomized sweep: %d staggered increments, UniformLatency[1,9], %d seeds:\n", n, seeds)
	fmt.Fprintf(&b, "  %-6s quiescent-consistent %d/%d seeds, linearizability violations %d/%d\n", "ctree", treeQuiesce, seeds, treeViol, seeds)
	fmt.Fprintf(&b, "  %-6s quiescent-consistent %d/%d seeds, linearizability violations %d/%d\n", "cnet", cnetQuiesce, seeds, cnetViol, seeds)

	if !cviol {
		return b.String(), fmt.Errorf("E13: scripted schedule failed to break counting-network linearizability")
	}
	if tviol || treeViol != 0 {
		return b.String(), fmt.Errorf("E13: tree counter violated linearizability")
	}
	if treeQuiesce != seeds || cnetQuiesce != seeds {
		return b.String(), fmt.Errorf("E13: quiescent consistency broken")
	}
	return b.String(), nil
}

// E13ScriptedCNet runs the deterministic HSW schedule against a width-2
// counting network over 5 processors and reports whether linearizability
// was violated, along with the values of operations A..E.
func E13ScriptedCNet() (violated bool, values []int, err error) {
	// Stall the exit messages of the 1st and 3rd tokens (A and C) so their
	// wire-counter reads happen long after E completes.
	lat := sim.NewStallKindLatency(100, map[string][]int{"exit": {0, 2}})
	c := cnet.New(5, cnet.WithWidth(2), cnet.WithSimOptions(sim.WithLatency(lat)))
	tv, err := timedRun(c, scheduleABCDE)
	if err != nil {
		return false, nil, fmt.Errorf("cnet scripted: %w", err)
	}
	if err := verify.QuiescentConsistent(tv); err != nil {
		return false, valuesOf(tv), fmt.Errorf("cnet scripted: quiescent consistency broken: %w", err)
	}
	return verify.Linearizable(tv) != nil, valuesOf(tv), nil
}

// E13ScriptedTree runs the analogous stalled schedule against the tree
// counter (stalling its value replies instead — the only message kind whose
// delay could plausibly reorder completions).
func E13ScriptedTree() (violated bool, values []int, err error) {
	lat := sim.NewStallKindLatency(100, map[string][]int{"value": {0, 2}})
	tree := concurrentTree{core.New(2, core.WithoutChecks(), core.WithSimOptions(sim.WithLatency(lat)))}
	tv, err := timedRun(tree, scheduleABCDE)
	if err != nil {
		return false, nil, fmt.Errorf("tree scripted: %w", err)
	}
	return verify.Linearizable(tv) != nil, valuesOf(tv), nil
}

// scheduleABCDE is the start times of the five scripted operations: A..D in
// quick succession, E well after D completed.
var scheduleABCDE = []int64{0, 4, 8, 12, 30}

func valuesOf(tv []verify.TimedValue) []int {
	values := make([]int, len(tv))
	for i, v := range tv {
		values[i] = v.Value
	}
	return values
}

// e13Sweep runs the randomized concurrent workload — n increments staggered
// 3 ticks apart under UniformLatency[1,9] — on the counter build returns,
// once per seed, and returns (linearizability violations, quiescent seeds).
func e13Sweep(n, seeds int, build func(opts ...sim.Option) startable) (violations, quiescent int, err error) {
	starts := make([]int64, n)
	for i := range starts {
		starts[i] = int64(i) * 3
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		tv, err := timedRun(build(sim.WithSeed(seed), sim.WithLatency(sim.UniformLatency{Min: 1, Max: 9})), starts)
		if err != nil {
			return 0, 0, fmt.Errorf("seed %d: %w", seed, err)
		}
		if verify.QuiescentConsistent(tv) == nil {
			quiescent++
		}
		if verify.Linearizable(tv) != nil {
			violations++
		}
	}
	return violations, quiescent, nil
}

// concurrentTree is the paper's counter in the concurrent (pipelined) mode
// of core.Tree.Start, which needs a tree built WithoutChecks; its replies
// are the counter's ints.
type concurrentTree struct{ *core.Counter }

func (t concurrentTree) Start(at int64, p sim.ProcID) sim.OpID { return t.Tree.Start(at, p, nil) }

func (t concurrentTree) ValueOf(p sim.ProcID) (int, bool) {
	reply, ok := t.ReplyOf(p)
	if !ok {
		return 0, false
	}
	return reply.(int), true
}
