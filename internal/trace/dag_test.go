package trace

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"distcount/internal/rng"
	"distcount/internal/sim"
)

// paperFigure1 rebuilds the DAG of Figure 1: processor 3 initiates; the
// message flow 3 -> 11 -> 17 -> 7, with 11 also messaging 27 and 17
// messaging 11 again (the initiator learns the value at the later 7 node —
// the exact shape in the figure is partly illegible in the source scan, so
// this is a faithful small example, not a byte-exact copy).
func paperFigure1() *DAG {
	d := NewDAG(3)
	n11 := d.AddEvent(11, 0)
	n17 := d.AddEvent(17, n11)
	d.AddEvent(27, n11)
	n7 := d.AddEvent(7, n17)
	_ = n7
	d.AddEvent(11, n17)
	return d
}

func TestNewDAGHasSource(t *testing.T) {
	d := NewDAG(5)
	if len(d.Nodes) != 1 || d.Nodes[0].Proc != 5 || d.Nodes[0].Parent != -1 {
		t.Fatalf("unexpected fresh DAG: %+v", d)
	}
	if d.ListLength() != 0 {
		t.Fatalf("fresh DAG list length = %d, want 0", d.ListLength())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEventBuildsArcs(t *testing.T) {
	d := paperFigure1()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Messages(), 5; got != want {
		t.Fatalf("messages = %d, want %d", got, want)
	}
	if got, want := d.ListLength(), 5; got != want {
		t.Fatalf("list length = %d, want %d", got, want)
	}
}

func TestParticipants(t *testing.T) {
	d := paperFigure1()
	got := d.Participants()
	want := []int{3, 7, 11, 17, 27}
	if len(got) != len(want) {
		t.Fatalf("participants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("participants = %v, want %v", got, want)
		}
	}
}

func TestCommunicationListTopological(t *testing.T) {
	d := paperFigure1()
	for i, n := range d.Nodes[1:] {
		if n.Parent > i {
			t.Fatalf("node %d's arc from %d violates topological order", i+1, n.Parent)
		}
	}
	list := d.CommunicationList()
	if list[0] != 3 {
		t.Fatalf("list must start with initiator, got %v", list)
	}
	if len(list) != len(d.Nodes) {
		t.Fatalf("list has %d entries for %d nodes", len(list), len(d.Nodes))
	}
}

func TestValidateRejectsCorrupt(t *testing.T) {
	d := paperFigure1()
	d.Nodes[1].Parent = 3
	if err := d.Validate(); err == nil {
		t.Fatal("Validate accepted a backward arc")
	}

	d2 := paperFigure1()
	d2.Nodes[0].Parent = 2
	if err := d2.Validate(); err == nil {
		t.Fatal("Validate accepted a source with a parent")
	}

	d3 := &DAG{}
	if err := d3.Validate(); err == nil {
		t.Fatal("Validate accepted an empty DAG")
	}

	d4 := paperFigure1()
	d4.Initiator = 99
	if err := d4.Validate(); err == nil {
		t.Fatal("Validate accepted a mismatched initiator")
	}
}

func TestAddEventPanicsOnBadParent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEvent with out-of-range parent did not panic")
		}
	}()
	NewDAG(1).AddEvent(2, 5)
}

func TestRenderDOT(t *testing.T) {
	d := paperFigure1()
	dot := d.DOT()
	for _, frag := range []string{"digraph inc", "doublecircle", "n0 -> n1", "label=\"3\""} {
		if !strings.Contains(dot, frag) {
			t.Fatalf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

func TestRenderASCII(t *testing.T) {
	d := paperFigure1()
	out := d.ASCII()
	if !strings.HasPrefix(out, "3\n") {
		t.Fatalf("ASCII must start with initiator:\n%s", out)
	}
	if !strings.Contains(out, "11") || !strings.Contains(out, "27") {
		t.Fatalf("ASCII missing nodes:\n%s", out)
	}
	if got, want := strings.Count(out, "\n"), len(d.Nodes); got != want {
		t.Fatalf("ASCII has %d lines, want %d:\n%s", got, want, out)
	}
}

func TestRenderListASCII(t *testing.T) {
	d := NewDAG(3)
	d.AddEvent(11, 0)
	if got, want := d.ListASCII(), "[3] -> [11]"; got != want {
		t.Fatalf("ListASCII = %q, want %q", got, want)
	}
}

func TestStringJoinsList(t *testing.T) {
	d := NewDAG(3)
	d.AddEvent(11, 0)
	if got, want := d.String(), "3 -> 11"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestRandomDAGsValid property-tests that arbitrarily grown DAGs satisfy
// Validate and keep ListLength == Messages == nodes-1.
func TestRandomDAGsValid(t *testing.T) {
	if err := quick.Check(func(seed uint64, stepsRaw uint8) bool {
		r := rng.New(seed)
		steps := int(stepsRaw % 100)
		d := NewDAG(1 + r.Intn(50))
		for i := 0; i < steps; i++ {
			parent := r.Intn(len(d.Nodes))
			d.AddEvent(1+r.Intn(50), parent)
		}
		return d.Validate() == nil &&
			d.ListLength() == d.Messages() &&
			d.Messages() == len(d.Nodes)-1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderBuildsDAGs feeds the Figure 1 DAG's node records for two
// operations, one in node order (as the simulator reports) and one shuffled
// (as concurrent rt workers may), and checks both rebuild it exactly.
func TestRecorderBuildsDAGs(t *testing.T) {
	want := paperFigure1()
	records := func(op sim.OpID) []sim.Delivery {
		out := make([]sim.Delivery, len(want.Nodes))
		for i, n := range want.Nodes {
			out[i] = sim.Delivery{Op: op, Proc: sim.ProcID(n.Proc), Node: i, Parent: n.Parent}
		}
		return out
	}
	var rec Recorder
	for _, d := range records(1) {
		rec.Record(d)
	}
	shuffled := records(2)
	r := rng.New(7)
	tail := shuffled[1:] // the source is reported before its operation sends anything
	for i := len(tail) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		tail[i], tail[j] = tail[j], tail[i]
	}
	for _, d := range shuffled {
		rec.Record(d)
	}
	for op := sim.OpID(1); op <= 2; op++ {
		got := rec.DAG(op)
		if got == nil || got.Initiator != want.Initiator || !slices.Equal(got.Nodes, want.Nodes) {
			t.Fatalf("op %d: rebuilt %+v, want %+v", op, got, want)
		}
	}
	if rec.DAG(3) != nil {
		t.Fatal("DAG of an unrecorded operation is not nil")
	}
}

// TestRecorderConcurrent records many operations from several goroutines,
// as rt workers report; run under -race.
func TestRecorderConcurrent(t *testing.T) {
	var rec Recorder
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := sim.OpID(g)
			rec.Record(sim.Delivery{Op: op, Proc: sim.ProcID(g), Parent: -1})
			for i := 1; i <= 50; i++ {
				rec.Record(sim.Delivery{Op: op, Proc: sim.ProcID(i), Node: i, Parent: i - 1})
			}
		}()
	}
	wg.Wait()
	for g := 1; g <= 4; g++ {
		d := rec.DAG(sim.OpID(g))
		if err := d.Validate(); err != nil || d.Initiator != g || d.Messages() != 50 {
			t.Fatalf("op %d: %v, initiator %d, %d messages", g, err, d.Initiator, d.Messages())
		}
	}
}

// TestRecorderPanicsOnGap: a node numbering with a hole is a backend bug.
func TestRecorderPanicsOnGap(t *testing.T) {
	var rec Recorder
	rec.Record(sim.Delivery{Op: 1, Proc: 1, Parent: -1})
	rec.Record(sim.Delivery{Op: 1, Proc: 2, Node: 2, Parent: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("DAG over a gap in the node numbering did not panic")
		}
	}()
	rec.DAG(1)
}
