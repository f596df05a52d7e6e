package counter_test

import (
	"errors"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counters/central"
	"distcount/internal/sim"
)

// TestSimStartAddsNoAllocation pins the one guarantee the seven hand-copied
// Start methods each carried as a comment ("cache the bound method value"):
// scheduling an operation through counter.Sim allocates exactly what the
// network's own ScheduleOp does with the machine's Initiate — the wrapper
// adds nothing per operation.
func TestSimStartAddsNoAllocation(t *testing.T) {
	cycle := func(s *counter.Sim, start func(at int64, p sim.ProcID) sim.OpID) func() {
		return func() {
			id := start(s.Net().Now(), 2)
			if err := s.Net().Run(); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.OpValue(id); !ok {
				t.Fatal("operation completed without a value")
			}
			s.Net().ForgetOp(id)
		}
	}
	m := central.NewMachine(8)
	bare := counter.OnSim(m)
	direct := cycle(bare, func(at int64, p sim.ProcID) sim.OpID {
		return bare.Net().ScheduleOp(at, p, m.Initiate)
	})
	wrapped := counter.OnSim(central.NewMachine(8))
	viaSim := cycle(wrapped, wrapped.Start)
	for i := 0; i < 64; i++ { // warm event buckets, op table, value maps
		direct()
		viaSim()
	}
	want := testing.AllocsPerRun(200, direct)
	if got := testing.AllocsPerRun(200, viaSim); got != want {
		t.Fatalf("Sim.Start cycle allocates %.2f objects per op, bare ScheduleOp cycle %.2f", got, want)
	}
}

// literalProto is a cloneable protocol that does not describe itself — the
// shape of a Machine written as a literal (bench's rt timer probe).
type literalProto struct{}

func (literalProto) Deliver(sim.Transport, sim.Message) {}
func (literalProto) CloneProtocol() sim.Protocol        { return literalProto{} }

// opaqueProto cannot even be copied.
type opaqueProto struct{}

func (opaqueProto) Deliver(sim.Transport, sim.Message) {}

// TestSimCloneNeedsADescriber: Clone has to rebind Initiate and Value to the
// copied protocol; a machine whose protocol cannot rebuild them gets an
// error, not a clone still wired to the original (and not a panic).
func TestSimCloneNeedsADescriber(t *testing.T) {
	literal := func(pr sim.Protocol) counter.Machine {
		return counter.Machine{
			Name: "literal", N: 2, Proto: pr,
			Initiate:  func(sim.Transport, sim.ProcID) {},
			Value:     func(sim.OpID) (int, bool) { return 0, true },
			Guarantee: counter.Exact(counter.Linearizable),
		}
	}
	if _, err := counter.OnSim(literal(literalProto{})).Clone(); err == nil {
		t.Fatal("cloning a machine that cannot describe itself succeeded")
	}
	if _, err := counter.OnSim(literal(opaqueProto{})).Clone(); !errors.Is(err, sim.ErrNotCloneable) {
		t.Fatalf("cloning an uncopyable protocol: err = %v, want sim.ErrNotCloneable", err)
	}
}
