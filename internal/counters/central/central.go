// Package central implements the naive centralized distributed counter the
// paper uses as its motivating negative example (Section 1): the counter
// value is stored at a single processor, and every other processor accesses
// it with one request/reply exchange.
//
// This counter is message-optimal — two messages per operation — but the
// holder sends or receives a message in every operation, so its message load
// over the canonical workload is Θ(n): "whenever a large number of
// processors operate on the counter, the single processor handling the
// counter value will be a bottleneck."
package central

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// Message kinds. Both carry their one field in the message word, so an
// operation's two messages box nothing.
type (
	reqWord struct{} // word: the origin
	valWord struct{} // word: the value
)

func (reqWord) Kind() string { return "inc-request" }
func (valWord) Kind() string { return "value" }

// holder is the processor storing the counter value.
const holder sim.ProcID = 1

// proto is the protocol: all state lives at the holder (the counter value);
// initiators keep only their in-flight operation entry in the shared op
// table.
type proto struct {
	n   int
	val int

	ops *counter.Ops[struct{}, int]
}

var _ sim.CloneableProtocol = (*proto)(nil)

func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	if p == holder {
		// The holder increments locally: accessing your own memory costs no
		// messages in the paper's model.
		pr.ops.Finish(nw, p, pr.val)
		pr.val++
		return
	}
	nw.SendWord(holder, reqWord{}, int64(p))
}

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch msg.Payload.(type) {
	case reqWord:
		nw.SendWord(sim.ProcID(msg.Word), valWord{}, int64(pr.val))
		pr.val++
	case valWord:
		pr.ops.Finish(nw, msg.To, int(msg.Word))
	default:
		panic(fmt.Sprintf("central: unexpected payload %T", msg.Payload))
	}
}

func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.ops = pr.ops.Clone()
	return &cp
}

// Machine implements counter.Describer. The counter value is confined to
// the holder's execution context, so handlers may run concurrently per
// processor; the holder is a single serialization point, so values respect
// real-time order.
func (pr *proto) Machine() counter.Machine {
	return counter.Machine{
		Name:      "central",
		N:         pr.n,
		Proto:     pr,
		Initiate:  pr.initiate,
		Value:     pr.ops.Take,
		Guarantee: counter.Exact(counter.Linearizable),
	}
}

// NewMachine returns the backend-independent protocol descriptor for n
// processors — what both backends run.
func NewMachine(n int) counter.Machine {
	pr := &proto{n: n, ops: counter.NewOps[struct{}, int](n)}
	return pr.Machine()
}
