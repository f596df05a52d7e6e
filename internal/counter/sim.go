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
// rt.New. It is the only sim-backed counter in the repository: an algorithm
// package exports its Machine, never a simulator handle, the registry builds
// nothing else on the sim backend, and the paper's instrumented tree
// (core.Tree) is a Sim over its checked protocol.
type Sim struct {
	m   Machine
	net *sim.Network
}

var _ Async = (*Sim)(nil)

// OnSim wraps m in a fresh simulated network configured by opts.
func OnSim(m Machine, opts ...sim.Option) *Sim {
	return &Sim{m: m, net: sim.New(m.N, m.Proto, opts...)}
}

// Name implements Counter.
func (s *Sim) Name() string { return s.m.Name }

// N implements Counter.
func (s *Sim) N() int { return s.m.N }

// Net exposes the simulated network: its clock, stepping and fault plan
// for the drivers that run it by hand, and its message statistics.
func (s *Sim) Net() *sim.Network { return s.net }

// OnDeliver implements Counter.
func (s *Sim) OnDeliver(fn func(sim.Delivery)) { s.net.OnDeliver(fn) }

// OnOpDone implements Counter.
func (s *Sim) OnOpDone(fn func(sim.OpDone)) { s.net.OnOpDone(fn) }

// Loads implements Counter: it copies the network's Sent and Recv.
func (s *Sim) Loads(sent, recv []int64) ([]int64, []int64) {
	return refill(sent, s.net.Sent()), refill(recv, s.net.Recv())
}

// MessagesTotal implements Counter.
func (s *Sim) MessagesTotal() int64 { return s.net.MessagesTotal() }

// Ops implements Counter.
func (s *Sim) Ops() int { return s.net.Ops() }

// Inc implements Counter: one operation by p run to quiescence — the
// paper's execution model, "enough time elapses in between any two inc
// requests". The network frees the operation's record with its last event,
// so a long sequential run keeps no per-operation record.
func (s *Sim) Inc(p sim.ProcID) (int, error) {
	id := s.Start(s.net.Now(), p)
	if err := s.net.Run(); err != nil {
		return 0, err
	}
	v, ok := s.OpValue(id)
	if !ok {
		return 0, fmt.Errorf("%s: operation by %v terminated without a value", s.m.Name, p)
	}
	return v, nil
}

// Start implements Async. The machine's Initiate is a func value built once
// per machine, so scheduling an operation allocates nothing beyond the
// network's own event.
func (s *Sim) Start(at int64, p sim.ProcID) sim.OpID {
	return s.net.ScheduleOp(at, p, s.m.Initiate)
}

// OpValue implements Async.
func (s *Sim) OpValue(id sim.OpID) (int, bool) { return s.m.Value(id) }

// Guarantee implements Async.
func (s *Sim) Guarantee() Guarantee { return s.m.Guarantee }

// Clone returns an independent copy; operations on the copy do not affect
// the original. It deep-copies the network and re-describes the machine from
// the cloned protocol. A machine whose protocol is not a Describer (a
// hand-written literal) cannot be rebound and reports an error. The
// lower-bound adversary clones its subject to probe every candidate.
func (s *Sim) Clone() (*Sim, error) {
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

// refill copies src into dst, replacing dst when it is shorter, and returns
// it: Counter.Loads's slice rule.
func refill(dst, src []int64) []int64 {
	if len(dst) < len(src) {
		dst = make([]int64, len(src))
	}
	copy(dst, src)
	return dst
}
