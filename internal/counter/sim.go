package counter

import (
	"fmt"

	"distcount/internal/sim"
)

// Describer is a protocol that can describe itself as a Machine. Every
// algorithm's NewMachine is its protocol's Machine method, and Sim.Clone
// calls the same method on the cloned protocol, so a clone's Initiate and
// Value hooks are bound to the copy, never to the original.
type Describer interface {
	Machine() Machine
}

// Sim binds a Machine to a simulated network — the simulator twin of
// rt.New. It is the only sim-backed counter in the repository: every
// algorithm package returns it (behind a typed handle when the algorithm
// has readouts of its own) and the registry builds nothing else on the sim
// backend.
type Sim struct {
	m   Machine
	net *sim.Network
}

var (
	_ Cloneable = (*Sim)(nil)
	_ Valued    = (*Sim)(nil)
)

// OnSim wraps m in a fresh simulated network configured by opts.
func OnSim(m Machine, opts ...sim.Option) *Sim {
	return &Sim{m: m, net: sim.New(m.N, m.Proto, opts...)}
}

// Name implements Counter.
func (s *Sim) Name() string { return s.m.Name }

// N implements Counter.
func (s *Sim) N() int { return s.m.N }

// Net implements Counter.
func (s *Sim) Net() *sim.Network { return s.net }

// Inc implements Counter: one operation run to quiescence.
func (s *Sim) Inc(p sim.ProcID) (int, error) { return RunInc(s, p) }

// Start implements Async. The machine's Initiate is a func value built once
// per machine, so scheduling an operation allocates nothing beyond the
// network's own event.
func (s *Sim) Start(at int64, p sim.ProcID) sim.OpID {
	return s.net.ScheduleOp(at, p, s.m.Initiate)
}

// OpValue implements Valued.
func (s *Sim) OpValue(id sim.OpID) (int, bool) { return s.m.Value(id) }

// Guarantee implements Valued.
func (s *Sim) Guarantee() Guarantee { return s.m.Guarantee }

// Clone implements Cloneable: it deep-copies the network and re-describes
// the machine from the cloned protocol. A machine whose protocol is not a
// Describer (a hand-written literal) cannot be rebound and reports an error.
func (s *Sim) Clone() (Counter, error) {
	net, err := s.net.Clone()
	if err != nil {
		return nil, err
	}
	d, ok := net.Protocol().(Describer)
	if !ok {
		return nil, fmt.Errorf("%s: clone: protocol %T cannot describe itself as a counter.Machine", s.m.Name, net.Protocol())
	}
	return &Sim{m: d.Machine(), net: net}, nil
}
