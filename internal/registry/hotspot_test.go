package registry_test

import (
	"fmt"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/trace"
)

// TestRunSequenceSharedMatchesDAGs: RunSequence's participant intersections
// equal the ones computed from the communication DAGs a trace.Recorder
// builds on an identical fresh counter driven by the same order — every
// registry row in sequential and random order, and the tree and central
// counters past 127 processors. No operation record survives the twin's
// Inc.
func TestRunSequenceSharedMatchesDAGs(t *testing.T) {
	type cell struct {
		name string
		n    int
	}
	var cells []cell
	for _, name := range registry.Names() {
		cells = append(cells, cell{name, 8}, cell{name, 81})
	}
	cells = append(cells, cell{"ctree", 1024}, cell{"central", 1024})
	orders := map[string]func(n int) []sim.ProcID{
		"sequential": counter.SequentialOrder,
		"random":     func(n int) []sim.ProcID { return counter.RandomOrder(n, 35) },
	}
	for _, cl := range cells {
		for oname, order := range orders {
			t.Run(fmt.Sprintf("%s/n=%d/%s", cl.name, cl.n, oname), func(t *testing.T) {
				c, err := registry.New(cl.name, cl.n)
				if err != nil {
					t.Fatal(err)
				}
				ops := order(c.N())
				res, err := counter.RunSequence(c, ops)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := registry.New(cl.name, cl.n)
				if err != nil {
					t.Fatal(err)
				}
				var rec trace.Recorder
				twin.Net().OnDeliver(rec.Record)
				for _, p := range ops {
					if _, err := twin.Inc(p); err != nil {
						t.Fatal(err)
					}
				}
				if len(res.Shared) != len(ops)-1 {
					t.Fatalf("%d intersections for %d operations", len(res.Shared), len(ops))
				}
				prev := rec.DAG(1).Participants()
				for i, got := range res.Shared {
					cur := rec.DAG(sim.OpID(i + 2)).Participants()
					if want := common(prev, cur); got != want {
						t.Fatalf("ops %d and %d: Shared %d, DAGs share %d (I = %v, %v)", i, i+1, got, want, prev, cur)
					}
					prev = cur
				}
			})
		}
	}
}

// common counts the elements of two sorted sets that occur in both.
func common(a, b []int) int {
	n := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			n++
			a, b = a[1:], b[1:]
		}
	}
	return n
}
