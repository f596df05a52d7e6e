// Package tokenring implements a distributed counter in which the counter
// value travels with a token around a logical ring of all processors.
//
// An inc by processor p forwards the token hop by hop from its current
// holder to p; p reads the value, increments it, and keeps the token. The
// counter value is never stored at a fixed processor, so intuitively the
// scheme "has no hot spot" — yet over the canonical workload the expected
// number of forwarding hops per operation is Θ(n), every forwarding hop
// loads the intermediate processors, and the per-processor load is Θ(n)
// anyway. The token ring is the classic example that decentralizing storage
// alone does not remove the counting bottleneck, which is exactly the
// paper's point that the bottleneck is inherent rather than an artifact of
// centralized storage.
package tokenring

import (
	"fmt"
	"sync/atomic"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// tokenWord carries the counter value and the destination processor that
// requested it, packed in the message word (sim.Pair(val, dest));
// intermediate ring members forward it.
type tokenWord struct{}

func (tokenWord) Kind() string { return "token" }

type proto struct {
	n int
	// oracle is the modelled "initiator knows the holder" shortcut: the
	// token's current holder and the value it carries, one word
	// sim.Pair(val, holder) shared by every processor. It is the protocol's
	// one cell no single processor owns. A real ring would circulate each
	// request to find the token; the model charges only the token's hops.
	// Every callback touches the word with one atomic step — a load, a
	// store, or (an initiator holding the token) a compare-and-swap — so on
	// the rt backend each acts at one instant, and runs are equivalent to
	// the serial order of callbacks the simulator takes.
	oracle atomic.Int64

	ops *counter.Ops[struct{}, int]
}

var _ sim.CloneableProtocol = (*proto)(nil)

func (pr *proto) next(p sim.ProcID) sim.ProcID {
	if int(p) == pr.n {
		return 1
	}
	return p + 1
}

// holder reads the oracle: the value the token carries and its holder.
func (pr *proto) holder() (val int, at sim.ProcID) {
	val, h := sim.Unpair(pr.oracle.Load())
	return val, sim.ProcID(h)
}

// initiate starts p's operation. A holder takes the next value itself, with
// no message; any other initiator asks the holder, which the oracle names,
// to route the token to it. In a real ring the request would circulate; to
// keep the message accounting focused on token movement (the canonical
// presentation of token-ring counters), the request is one message to the
// holder, and the token moves from there.
func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	for {
		w := pr.oracle.Load()
		val, h := sim.Unpair(w)
		if sim.ProcID(h) != p {
			nw.SendWord(sim.ProcID(h), requestWord{}, int64(p))
			return
		}
		if pr.oracle.CompareAndSwap(w, sim.Pair(val+1, h)) {
			pr.ops.Finish(nw, p, val)
			return
		}
	}
}

// requestWord steers the token toward the destination in its word.
type requestWord struct{}

func (requestWord) Kind() string { return "token-request" }

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch msg.Payload.(type) {
	case requestWord:
		// The holder releases the token toward the destination.
		val, _ := pr.holder()
		nw.SendWord(pr.next(msg.To), tokenWord{}, sim.Pair(val, int(msg.Word)))
	case tokenWord:
		val, dest := sim.Unpair(msg.Word)
		if msg.To != sim.ProcID(dest) {
			nw.SendWord(pr.next(msg.To), tokenWord{}, msg.Word)
			return
		}
		pr.oracle.Store(sim.Pair(val+1, dest))
		pr.ops.Finish(nw, msg.To, val)
	default:
		panic(fmt.Sprintf("tokenring: unexpected payload %T", msg.Payload))
	}
}

func (pr *proto) CloneProtocol() sim.Protocol {
	cp := &proto{n: pr.n, ops: pr.ops.Clone()}
	cp.oracle.Store(pr.oracle.Load())
	return cp
}

// Machine implements counter.Describer. Sequential-only: under concurrency
// the holder may release the token toward several destinations before any
// of them lands, so values can duplicate — every token copy still
// terminates at its destination, and the hop-by-hop load profile remains
// the quantity of interest for workload studies. Apart from the oracle
// word every cell is its processor's own, so the rt backend runs receivers
// concurrently.
func (pr *proto) Machine() counter.Machine {
	return counter.Machine{
		Name:      "tokenring",
		N:         pr.n,
		Proto:     pr,
		Initiate:  pr.initiate,
		Value:     pr.ops.Take,
		Guarantee: counter.Exact(counter.SequentialOnly),
	}
}

// newProto builds the ring: processor 1 initially holds the token and the
// value 0.
func newProto(n int) *proto {
	pr := &proto{n: n, ops: counter.NewOps[struct{}, int](n)}
	pr.oracle.Store(sim.Pair(0, 1))
	return pr
}

// NewMachine returns the backend-independent protocol descriptor for n
// processors — what both backends run.
func NewMachine(n int) counter.Machine { return newProto(n).Machine() }
