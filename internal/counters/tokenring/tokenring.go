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

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// tokenWord carries the counter value and the destination processor that
// requested it, packed in the message word (sim.Pair(val, dest));
// intermediate ring members forward it.
type tokenWord struct{}

func (tokenWord) Kind() string { return "token" }

type proto struct {
	n      int
	holder sim.ProcID // current token holder
	val    int

	ops *counter.Ops[struct{}, int]
}

var _ sim.CloneableProtocol = (*proto)(nil)

func (pr *proto) next(p sim.ProcID) sim.ProcID {
	if int(p) == pr.n {
		return 1
	}
	return p + 1
}

func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	if p == pr.holder {
		pr.ops.Finish(nw, p, pr.val)
		pr.val++
		return
	}
	// The requester asks the ring to route the token to it. In a real ring
	// the request would circulate; to keep the message accounting focused on
	// token movement (the canonical presentation of token-ring counters), the
	// holder is modelled as already knowing the destination, and the token
	// starts moving from the holder: the initiation message is the holder's
	// dispatch of the token to its ring successor.
	pr.routeToken(nw, p)
}

// routeToken starts token movement from the current holder toward dest.
// Called in the initiator's context; the first hop is accounted to the
// holder by sending a steering request to it when the initiator is not the
// holder.
func (pr *proto) routeToken(nw sim.Transport, dest sim.ProcID) {
	// Request message: initiator -> holder (1 message), then token hops
	// holder -> ... -> dest along the ring.
	nw.SendWord(pr.holder, requestWord{}, int64(dest))
}

// requestWord steers the token toward the destination in its word.
type requestWord struct{}

func (requestWord) Kind() string { return "token-request" }

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch msg.Payload.(type) {
	case requestWord:
		// Current holder releases the token toward the destination.
		nw.SendWord(pr.next(msg.To), tokenWord{}, sim.Pair(pr.val, int(msg.Word)))
	case tokenWord:
		val, dest := sim.Unpair(msg.Word)
		if msg.To != sim.ProcID(dest) {
			nw.SendWord(pr.next(msg.To), tokenWord{}, msg.Word)
			return
		}
		pr.holder = msg.To
		pr.val = val
		pr.ops.Finish(nw, msg.To, pr.val)
		pr.val++
	default:
		panic(fmt.Sprintf("tokenring: unexpected payload %T", msg.Payload))
	}
}

func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.ops = pr.ops.Clone()
	return &cp
}

// Machine implements counter.Describer. Serial: initiate reads the current
// holder, which every token landing rewrites, so the rt backend must
// serialize all callbacks. Sequential-only: under concurrency the holder may
// release the token toward several destinations before any of them lands, so
// values can duplicate — every token copy still terminates at its
// destination, and the hop-by-hop load profile remains the quantity of
// interest for workload studies.
func (pr *proto) Machine() counter.Machine {
	return counter.Machine{
		Name:      "tokenring",
		N:         pr.n,
		Proto:     pr,
		Initiate:  pr.initiate,
		Value:     pr.ops.Take,
		Guarantee: counter.Exact(counter.SequentialOnly),
		Serial:    true,
	}
}

// newProto builds the ring: processor 1 initially holds the token and the
// value 0.
func newProto(n int) *proto {
	return &proto{n: n, holder: 1, ops: counter.NewOps[struct{}, int](n)}
}

// NewMachine returns the backend-independent protocol descriptor for n
// processors — what both backends run.
func NewMachine(n int) counter.Machine { return newProto(n).Machine() }
