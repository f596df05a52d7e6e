// Package counter defines the distributed-counter abstraction shared by the
// paper's communication-tree counter (internal/core) and all baseline
// implementations (internal/counters/...), together with the sequential
// operation driver that reproduces the paper's execution model and canonical
// workload.
//
// An algorithm is a Machine: its protocol plus the Initiate and Value hooks
// that start an operation and read its result, with no execution substrate
// baked in. Sim (built by OnSim) binds a Machine to the discrete-event
// simulator and is the only simulator-backed Counter there is; internal/rt
// binds the same Machine to real cores. The interfaces below (Counter,
// Async, Cloneable) are what drivers see of either, and a caller reads each
// operation's value by its id with Async.OpValue.
//
// A distributed counter encapsulates an integer value val and supports inc:
// inc returns the current counter value to the requesting processor and
// increments the counter by one (test-and-increment). Operations are
// sequential — the driver runs the underlying network to quiescence between
// operations, matching the paper's assumption that "enough time elapses in
// between any two inc requests".
package counter

import (
	"fmt"

	"distcount/internal/sim"
)

// Counter is a distributed counter bound to an execution backend.
type Counter interface {
	// Name identifies the algorithm (e.g. "ctree", "central").
	Name() string
	// N returns the number of processors in the underlying network. For
	// algorithms with structural size constraints (the paper's tree needs
	// n = k^(k+1)) this may exceed the requested size.
	N() int
	// Inc executes one test-and-increment initiated by processor p,
	// running the network to quiescence, and returns the counter value
	// observed by p (the pre-increment value).
	Inc(p sim.ProcID) (int, error)
	// Net exposes the underlying network for load accounting and DAG
	// recording (OnDeliver).
	Net() *sim.Network
}

// Cloneable is implemented by counters that can deep-copy their full state
// (network + protocol). The lower-bound adversary requires it.
type Cloneable interface {
	Counter
	// Clone returns an independent copy; operations on the copy do not
	// affect the original.
	Clone() (Counter, error)
}

// Async is a Counter whose increments can be injected into the simulated
// network at a chosen time WITHOUT draining the network first, so that many
// operations are in flight concurrently — the regime the workload engine
// (internal/engine) drives. Concurrency is outside the paper's sequential
// model; protocols not designed for it remain message-accountable (every
// operation terminates and loads the network realistically) but may assign
// duplicate values, which is exactly what the linearizability experiments
// (E13) and the engine's opt-in verification study. Every implementation in
// this repository is Async: per-initiator operation state is kept in the
// shared Ops table, so operations from distinct initiators never share
// mutable protocol state, and each operation's delivered value is recorded
// under its id for OpValue.
//
// Callers must keep at most one operation per initiator in flight; the
// shared op table enforces this by panicking on overlap (Ops.Begin).
type Async interface {
	Counter
	// Start schedules one increment by p at absolute simulated time at
	// (>= Net().Now()) and returns its operation id without running the
	// network. Completion is observable via the network's OnOpDone handler.
	Start(at int64, p sim.ProcID) sim.OpID
	// OpValue returns the value delivered to the completed operation id and
	// forgets it (long workload runs must not accumulate per-op state). ok
	// is false when the operation is unknown, unfinished, or already read.
	OpValue(id sim.OpID) (int, bool)
	// Guarantee is the strongest contract the algorithm claims under
	// concurrent operation — consistency level plus error bound for
	// approximate protocols; the engine verifies the claimed property.
	Guarantee() Guarantee
}

// Consistency is the strongest value-correctness guarantee a counter claims
// under concurrent operation. Sequential correctness (values 0, 1, 2, ...
// when operations run one at a time) holds for every implementation; the
// levels below describe what survives when operations overlap, and they
// select which property the engine's verification checks.
type Consistency int

const (
	// SequentialOnly marks protocols that are correct only in the paper's
	// sequential model: overlapping operations may receive duplicate values
	// (the token ring's holder releases the token toward several
	// destinations; replicated read/write quorums cannot make the
	// read-increment-write atomic). Verification reports their duplicate
	// counts as a measurement, not a violation.
	SequentialOnly Consistency = iota
	// Quiescent marks quiescently consistent protocols: every value is
	// handed out exactly once, but an operation may receive a smaller value
	// than an operation that completed before it started (counting
	// networks, diffracting trees — Herlihy/Shavit/Waarts).
	Quiescent
	// Linearizable marks protocols whose values also respect real-time
	// order: a single serialization point assigns values monotonically
	// within each operation's lifetime (the central holder, the paper's
	// tree root, the combining tree's root).
	Linearizable
	// Approximate marks protocols that trade exactness for message cost:
	// returned values track the true prefix count only within a declared
	// relative error bound ε (carried by Guarantee.Epsilon). The paper's
	// lower bound prices exact counting; these protocols sidestep it and
	// verification checks the bound instead of exact value assignment.
	Approximate
)

// String returns the level name used in reports ("sequential",
// "quiescent", "linearizable", "approximate").
func (c Consistency) String() string {
	switch c {
	case Quiescent:
		return "quiescent"
	case Linearizable:
		return "linearizable"
	case Approximate:
		return "approximate"
	default:
		return "sequential"
	}
}

// Guarantee is the full value-correctness contract a counter claims under
// concurrent operation: the consistency level plus, for Approximate
// protocols, the relative error bound ε the values are promised to respect.
// Exact levels carry Epsilon == 0, so a Guarantee wrapping an exact level
// compares, renders, and verifies identically to the bare level it replaced.
type Guarantee struct {
	// Level is the consistency class (see Consistency).
	Level Consistency
	// Epsilon is the claimed relative error bound for Approximate
	// protocols: every returned value v must satisfy
	// (1-ε)·lo ≤ v ≤ (1+ε)·hi, where [lo, hi] brackets the true prefix
	// count over the operation's lifetime. Zero for exact levels.
	Epsilon float64
}

// Exact wraps an exact consistency level in a Guarantee (ε = 0).
func Exact(level Consistency) Guarantee { return Guarantee{Level: level} }

// Approx builds the guarantee of an ε-approximate protocol.
func Approx(eps float64) Guarantee { return Guarantee{Level: Approximate, Epsilon: eps} }

// String renders the contract for reports: exact levels keep their bare
// level name ("linearizable"), approximate guarantees carry the bound —
// "approximate(0.05)".
func (g Guarantee) String() string {
	if g.Level == Approximate {
		return fmt.Sprintf("approximate(%g)", g.Epsilon)
	}
	return g.Level.String()
}
