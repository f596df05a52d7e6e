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

import (
	"fmt"
	"math"
	"math/bits"
)

// ProcID identifies a processor; valid ids are 1..n.
type ProcID int

// OpID identifies one counter operation (one "inc process"). The zero value
// is never a valid id; ids start at 1.
type OpID int

// Payload is the protocol-specific content of a message: its kind tag, and
// for a kind whose data does not fit the message's inline word (see
// Message) the data itself. Implementations must be immutable value types
// (or treated as such): clones of a network share in-flight payloads.
type Payload interface {
	// Kind returns a short human-readable tag used in traces and debugging.
	Kind() string
}

// BitSized is optionally implemented by payloads that account their size.
// The paper bounds the tree counter's messages at O(log n) bits; networks
// track the largest message and total bits for payloads that implement
// this interface (see Network.MaxMessageBits).
type BitSized interface {
	// Bits returns the size in bits of a message carrying this payload and
	// the inline word w (Message.Word): a word kind sizes the fields it
	// packed into w, a boxed payload ignores w.
	Bits(w int64) int
}

// BitsFor returns the number of bits needed to represent the non-negative
// value v (at least 1), the building block for payload size accounting:
// a processor or node identifier in a system of n processors costs
// BitsFor(n) bits.
func BitsFor(v int) int {
	if v < 0 {
		panic("sim: BitsFor of negative value")
	}
	return max(1, bits.Len(uint(v)))
}

// Message is a single point-to-point message. Its content is a Payload
// plus one inline word: a message kind whose data fits in 64 bits is a
// zero-size kind value (boxing one into Payload allocates nothing) with the
// data packed into Word (see SendWord and Pair); a kind that does not fit is
// a payload struct, boxed once at its send, and its Word is 0.
type Message struct {
	From, To ProcID
	Payload  Payload
	// Word is the message's inline data word, as passed to SendWord,
	// SendAs, AfterWord or AfterDetached (0 for Send and After). A
	// duplicated or deferred message keeps it.
	Word int64
	// Local marks a timer/self-wakeup: it is delivered through the normal
	// event queue but is not a network message, so it is not counted in any
	// message load and does not appear in communication DAGs.
	Local bool
}

// Pair packs two fields in [0, 2^32) into one message word, hi in the upper
// half; Unpair splits it again. It panics on a field out of range, which a
// protocol's data would reach only far past any simulated run (a counter
// value or an operation count above four billion).
func Pair(hi, lo int) int64 {
	if uint64(hi)|uint64(lo) > math.MaxUint32 {
		panic(fmt.Sprintf("sim: word fields (%d, %d) out of range", hi, lo))
	}
	return int64(uint64(hi)<<32 | uint64(lo))
}

// Unpair returns the two fields Pair packed into w.
func Unpair(w int64) (hi, lo int) {
	return int(uint64(w) >> 32), int(uint32(w))
}

// Transport is the messaging surface a protocol runs against: everything a
// Deliver or operation-start callback may do, and nothing more. The
// discrete-event Network is one implementation (simulated time, single
// thread); internal/rt's worker-pool runtime is the second (wall-clock
// time, real concurrency). Protocols written against Transport
// run unchanged on either. Both carry a message's inline word (SendWord,
// SendAs) everywhere its payload goes: to the receiver, into a fault-injected
// duplicate and through a deferral; a timer's word (AfterWord,
// AfterDetached) reaches its wakeup the same way.
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
	// attributed to the current operation. It is SendWord with a zero word.
	Send(to ProcID, pl Payload)
	// SendWord is Send with the inline word w (Message.Word): a message
	// kind whose data fits in 64 bits sends a zero-size kind value and
	// packs its data into w, so the send boxes nothing.
	SendWord(to ProcID, pl Payload, w int64)
	// Adopt captures the current operation as a continuation token, keeping
	// it open until the token is spent with SendAs or discarded with Release.
	Adopt() OpToken
	// SendAs is SendWord attributed to the adopted operation instead of
	// the current one, spending the token.
	SendAs(tok OpToken, to ProcID, pl Payload, w int64)
	// Release discards an adopted continuation without sending.
	Release(tok OpToken)
	// After schedules a local wakeup for the current processor, attributed
	// to (and keeping open) the current operation. It is AfterWord with a
	// zero word.
	After(delay int64, pl Payload)
	// AfterWord is After with the inline word w, delivered as Message.Word
	// with Local set: a timer whose data fits in 64 bits schedules a
	// zero-size kind value and boxes nothing.
	AfterWord(delay int64, pl Payload, w int64)
	// AfterDetached is AfterWord for maintenance wakeups that belong to no
	// operation.
	AfterDetached(delay int64, pl Payload, w int64)
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
