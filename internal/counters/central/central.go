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

// payloads
type (
	reqPayload struct{ Origin sim.ProcID }
	valPayload struct{ Val int }
)

func (reqPayload) Kind() string { return "inc-request" }
func (valPayload) Kind() string { return "value" }

// proto is the protocol: all state lives at the holder (the counter value);
// initiators keep only their in-flight operation entry in the shared op
// table.
type proto struct {
	n      int
	holder sim.ProcID
	val    int

	ops *counter.Ops[struct{}, int]
}

var _ sim.CloneableProtocol = (*proto)(nil)

func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	if p == pr.holder {
		// The holder increments locally: accessing your own memory costs no
		// messages in the paper's model.
		pr.ops.Finish(nw, p, pr.val)
		pr.val++
		return
	}
	nw.Send(pr.holder, reqPayload{Origin: p})
}

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case reqPayload:
		nw.Send(pl.Origin, valPayload{Val: pr.val})
		pr.val++
	case valPayload:
		pr.ops.Finish(nw, msg.To, pl.Val)
	default:
		panic(fmt.Sprintf("central: unexpected payload %T", msg.Payload))
	}
}

func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.ops = pr.ops.Clone(nil)
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

// Counter is the centralized counter on the simulator.
type Counter struct {
	*counter.Sim
	proto *proto
}

// Option configures the counter.
type Option func(*config)

type config struct {
	holder  sim.ProcID
	simOpts []sim.Option
}

// WithHolder selects which processor stores the counter value (default 1).
func WithHolder(p sim.ProcID) Option {
	return func(c *config) { c.holder = p }
}

// WithSimOptions forwards options to the underlying network; NewMachine
// ignores them (they configure a network, not the protocol).
func WithSimOptions(opts ...sim.Option) Option {
	return func(c *config) { c.simOpts = append(c.simOpts, opts...) }
}

func build(n int, opts []Option) (*proto, []sim.Option) {
	cfg := config{holder: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return &proto{n: n, holder: cfg.holder, ops: counter.NewOps[struct{}, int]()}, cfg.simOpts
}

// NewMachine returns the backend-independent protocol descriptor for n
// processors — what both backends run.
func NewMachine(n int, opts ...Option) counter.Machine {
	pr, _ := build(n, opts)
	return pr.Machine()
}

// New creates a centralized counter over n simulated processors.
func New(n int, opts ...Option) *Counter {
	pr, simOpts := build(n, opts)
	return &Counter{Sim: counter.OnSim(pr.Machine(), simOpts...), proto: pr}
}

// Holder returns the processor storing the counter value.
func (c *Counter) Holder() sim.ProcID { return c.proto.holder }
