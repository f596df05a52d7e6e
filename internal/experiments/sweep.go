package experiments

import (
	"fmt"

	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/loadstat"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

// The tabulated experiments share one shape — some text, one table with a
// row (or a few) per swept value, some more text — and two measurements:
// the tree counter over a one-inc-per-processor workload, and a batch of
// overlapping operations with their timing. This file is that shape and
// those measurements; an experiment is the part that differs.

// pick resolves a scale-dependent parameter: quick under Config.Quick,
// full otherwise.
func pick[T any](cfg Config, full, quick T) T {
	if cfg.Quick {
		return quick
	}
	return full
}

// sweep is one tabulated experiment (or one table of it).
type sweep[X any] struct {
	// intro is printed above the table.
	intro string
	// header names the table's columns.
	header []string
	// over lists the swept values: sizes, arities, algorithms, settings.
	over []X
	// point measures one value and emits its table row(s).
	point func(x X, row func(cells ...any)) error
	// outro, if set, gets every emitted row and returns the text below the
	// table — and the experiment's verdict, when it has one: a non-nil
	// error is returned together with the full report.
	outro func(rows [][]any) (string, error)
}

// render runs the sweep and returns the report.
func (s sweep[X]) render() (string, error) {
	tb := loadstat.NewTable(s.header...)
	var rows [][]any
	for _, x := range s.over {
		err := s.point(x, func(cells ...any) {
			rows = append(rows, cells)
			tb.AddRow(cells...)
		})
		if err != nil {
			return "", err
		}
	}
	report := s.intro + tb.String()
	if s.outro == nil {
		return report, nil
	}
	outro, err := s.outro(rows)
	return report + outro, err
}

// column extracts one column of the emitted rows.
func column[T any](rows [][]any, i int) []T {
	out := make([]T, len(rows))
	for r, row := range rows {
		out[r] = row[i].(T)
	}
	return out
}

// TreeRun is the tree counter after a workload, with the readouts every
// consumer wants next to it (the embedded counter has the rest: Stats,
// GrowOldMax, Net).
type TreeRun struct {
	*core.Counter
	// Load summarizes the per-processor message loads.
	Load loadstat.Summary
	// Violations counts the Section 4 lemma violations the instrumentation
	// recorded.
	Violations int64
}

// RunTree executes one inc per processor on c in the given order (nil: the
// canonical sequential order 1..n) and summarizes the result. It is the
// one "run the paper's workload on the arity-k tree" of the experiments,
// their tests and `paper tree -run`.
func RunTree(c *core.Counter, order []sim.ProcID) (TreeRun, error) {
	if order == nil {
		order = counter.SequentialOrder(c.N())
	}
	if _, err := counter.RunSequence(c, order); err != nil {
		return TreeRun{}, err
	}
	_, violations := c.Violations()
	return TreeRun{
		Counter:    c,
		Load:       loadstat.SummarizeLoads(c.Net().Loads()),
		Violations: violations,
	}, nil
}

// Level is one level of the communication tree's inner nodes.
type Level struct {
	// Nodes are the level's nodes in position order.
	Nodes []core.NodeInfo
	// Retired and MaxRetired are the level's total retirements and the most
	// any one of its nodes performed (the Number of Retirements Lemma
	// bounds the latter by k^(k-i)-1 on level i).
	Retired, MaxRetired int
}

// Levels groups node snapshots (core.Tree.Nodes, which lists them in level
// order) by level; the result is indexed by level, 0..k.
func Levels(nodes []core.NodeInfo) []Level {
	levels := make([]Level, nodes[len(nodes)-1].Level+1)
	for _, nd := range nodes {
		l := &levels[nd.Level]
		l.Nodes = append(l.Nodes, nd)
		l.Retired += nd.Retired
		l.MaxRetired = max(l.MaxRetired, nd.Retired)
	}
	return levels
}

// startable is what timedRun needs of a concurrent counter: asynchronous
// starts on a simulated network and a per-initiator value readback.
type startable interface {
	Start(at int64, p sim.ProcID) sim.OpID
	Net() *sim.Network
	ValueOf(p sim.ProcID) (int, bool)
}

// timedRun is the concurrent experiments' measurement: processor i+1 starts
// an operation at starts[i], the network runs to quiescence, and every
// operation's value comes back with its timing, in processor order.
func timedRun(c startable, starts []int64) ([]verify.TimedValue, error) {
	ops := make([]sim.OpID, len(starts))
	for i, at := range starts {
		ops[i] = c.Start(at, sim.ProcID(i+1))
	}
	if err := c.Net().Run(); err != nil {
		return nil, err
	}
	values := make([]int, len(starts))
	for i := range starts {
		v, ok := c.ValueOf(sim.ProcID(i + 1))
		if !ok {
			return nil, fmt.Errorf("processor %d received no value", i+1)
		}
		values[i] = v
	}
	return verify.CollectTimedValues(c.Net(), ops, values)
}
