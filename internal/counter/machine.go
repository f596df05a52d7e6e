package counter

import "distcount/internal/sim"

// Transport is the messaging surface every counter protocol runs against —
// an alias of sim.Transport, re-exported here so the counter abstraction
// names its own dependency: implementations speak Transport, and whether the
// transport is the discrete-event simulator (internal/sim) or the
// real-hardware runtime (internal/rt) is the backend's business.
type Transport = sim.Transport

// Machine is the backend-independent description of one counter algorithm:
// the protocol state machine plus the hooks a runtime needs to drive and
// read it. OnSim wraps a Machine in a sim.Network; rt.New wraps the same
// Machine in mailboxes and a worker pool. Both run the identical protocol code,
// and neither knows which algorithm it is running.
type Machine struct {
	// Name identifies the algorithm (e.g. "central", "combining").
	Name string
	// N is the number of processors the protocol was built for (structural
	// constraints may have rounded the requested size up).
	N int
	// Proto handles every delivered message.
	Proto sim.Protocol
	// Initiate is the operation-start callback: it opens initiator p's
	// operation (counter.Ops.Begin) and sends its first message(s).
	Initiate func(nw Transport, p sim.ProcID)
	// Value returns the value delivered to a completed operation and
	// forgets it; ok is false when unknown, unfinished, or already read.
	Value func(id sim.OpID) (int, bool)
	// Guarantee is the contract the algorithm claims under concurrency:
	// consistency level plus error bound for approximate protocols.
	Guarantee Guarantee
}
