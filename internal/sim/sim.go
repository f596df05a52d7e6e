// Package sim implements a deterministic, discrete-event simulator for the
// asynchronous message-passing model of Wattenhofer & Widmayer, "An Inherent
// Bottleneck in Distributed Counting" (Section 2):
//
//   - n processors, uniquely identified by the integers 1..n;
//   - unbounded local memory, no shared memory;
//   - any processor can exchange messages directly with any other;
//   - a message arrives an unbounded but finite amount of time after it is
//     sent (modelled by pluggable latency functions);
//   - no failures by default; WithFaults optionally injects a
//     deterministic, seeded schedule of message loss/duplication, processor
//     crash/recover, and membership churn (see faults.go).
//
// Counter algorithms are implemented as a Protocol whose Deliver method is
// invoked for every arriving message. An operation (the paper's "process of
// an inc operation") is opened with StartOp or ScheduleOp and consists of
// all messages causally descended from its initiation. Running the network
// to quiescence between operations reproduces the paper's sequential setting
// ("enough time elapses in between any two inc requests").
//
// The simulator counts, for every processor p, the number of messages p
// sends plus the number p receives — the paper's message load m_p. An
// OnDeliver hook receives each operation's communication DAG node by node;
// internal/trace builds the DAG, whose topological linearization is the
// "communication list" used by the lower-bound adversary.
//
// Networks are cloneable at quiescence, which the adversary uses to explore
// hypothetical next operations without committing them.
package sim

import "fmt"

// ProcID identifies a processor; valid ids are 1..n.
type ProcID int

// OpID identifies one counter operation (one "inc process"). The zero value
// is never a valid id; ids start at 1.
type OpID int

// Payload is the protocol-specific content of a message. Implementations
// must be immutable value types (or treated as such): clones of a network
// share in-flight payloads.
type Payload interface {
	// Kind returns a short human-readable tag used in traces and debugging.
	Kind() string
}

// BitSized is optionally implemented by payloads that account their size.
// The paper bounds the tree counter's messages at O(log n) bits; networks
// track the largest message and total bits for payloads that implement
// this interface (see Network.MaxMessageBits).
type BitSized interface {
	// Bits returns the payload size in bits.
	Bits() int
}

// BitsFor returns the number of bits needed to represent the non-negative
// value v (at least 1), the building block for payload size accounting:
// a processor or node identifier in a system of n processors costs
// BitsFor(n) bits.
func BitsFor(v int) int {
	if v < 0 {
		panic("sim: BitsFor of negative value")
	}
	bits := 1
	for v > 1 {
		v >>= 1
		bits++
	}
	return bits
}

// Message is a single point-to-point message.
type Message struct {
	From, To ProcID
	Payload  Payload
	// Local marks a timer/self-wakeup: it is delivered through the normal
	// event queue but is not a network message, so it is not counted in any
	// message load and does not appear in communication DAGs.
	Local bool
}

// Transport is the messaging surface a protocol runs against: everything a
// Deliver or operation-start callback may do, and nothing more. The
// discrete-event Network is one implementation (simulated time, single
// thread); internal/rt's worker-pool runtime is the second (wall-clock
// time, real concurrency). Protocols written against Transport
// run unchanged on either.
//
// All methods except N, Now and CurrentOp must be called from within a
// delivery or start callback, in the execution context of one processor.
// On the rt backend that context is the one worker holding the receiving
// processor — a processor's callbacks never overlap, though successive ones
// may run on different goroutines — so the single-threaded calling
// discipline carries over per processor.
type Transport interface {
	// N returns the number of processors.
	N() int
	// Now returns the current time: simulated ticks on the Network,
	// wall-clock nanoseconds since the run began on the rt backend.
	Now() int64
	// CurrentOp returns the id of the operation the currently executing
	// callback belongs to (0 outside a callback or in a detached timer).
	CurrentOp() OpID
	// Send transmits a message from the currently executing processor,
	// attributed to the current operation.
	Send(to ProcID, pl Payload)
	// Adopt captures the current operation as a continuation token, keeping
	// it open until the token is spent with SendAs or discarded with Release.
	Adopt() OpToken
	// SendAs is Send attributed to the adopted operation instead of the
	// current one, spending the token.
	SendAs(tok OpToken, to ProcID, pl Payload)
	// Release discards an adopted continuation without sending.
	Release(tok OpToken)
	// After schedules a local wakeup for the current processor, attributed
	// to (and keeping open) the current operation.
	After(delay int64, pl Payload)
	// AfterDetached is After for maintenance wakeups that belong to no
	// operation.
	AfterDetached(delay int64, pl Payload)
}

// Protocol is a distributed algorithm running on a transport. Per-processor
// state is owned by the protocol; the contract — enforced by convention and
// exercised by the tests — is that Deliver(nw, msg) reads and writes only
// the local state of msg.To and communicates with other processors solely
// via nw.Send.
type Protocol interface {
	Deliver(nw Transport, msg Message)
}

// CloneableProtocol is implemented by protocols that support deep-copying
// their entire state, enabling Network.Clone. The lower-bound adversary
// requires this.
type CloneableProtocol interface {
	Protocol
	// CloneProtocol returns an independent deep copy.
	CloneProtocol() Protocol
}

func (p ProcID) String() string { return fmt.Sprintf("p%d", int(p)) }
