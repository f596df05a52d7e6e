// Package core implements the paper's primary contribution: the distributed
// counter of Section 4 of Wattenhofer & Widmayer, "An Inherent Bottleneck in
// Distributed Counting" — a communication tree of arity k over n = k·k^k
// processors whose inner nodes retire their processor after handling Θ(k)
// messages, so that over the canonical workload (each processor increments
// exactly once) every processor sends and receives only O(k) messages. This
// matches the paper's lower bound of Ω(k) on the bottleneck message load,
// proving the bound tight.
//
// # Structure
//
// The root is on level 0, inner nodes occupy levels 0..k, and the n leaves
// on level k+1 are the processors themselves. The root stores the served
// object's state (for the counter: the value). An operation initiated by
// processor p travels leaf -> root along inner nodes ("inc from p"); the
// root applies it and replies directly to p.
//
// The tree is generic over the root state (RootState): the paper observes
// that its results extend to "a bit that can be accessed and flipped and a
// priority queue", both built on Tree in internal/ext. Counter is the
// counter instantiation.
//
// # Retirement
//
// Every inner node tracks its age — the number of messages its current
// processor has sent or received on the node's behalf. Once the age reaches
// the retirement threshold (4k by default, see below), the node hands its
// role to the next processor of its preassigned replacement pool: k+2
// handoff messages to the successor plus k+1 notifications to the parent
// and children, all of size O(log n) bits. Notifications age their
// receivers, so retirements can cascade; the paper's "proper handshaking
// protocol with a constant number of extra messages" is realized as
// successor forwarding for messages addressed through stale neighbor tables.
//
// # Reconstructed constants
//
// The source scan of the paper loses most numeric constants. This
// implementation fixes them as follows, chosen so that every lemma proof of
// Section 4 goes through (see DESIGN.md §4.2):
//
//   - retirement threshold: age >= 4k (the Retirement Lemma needs the
//     messages receivable by a fresh processor within one operation, k+3,
//     to stay below the threshold: k+3 < 4k for k >= 2);
//   - handoff: k+2 messages to the successor (job, parent id, k child ids;
//     the root replaces the parent id with the state-carrying message);
//   - notifications: k+1 messages (parent and k children; the root "saves
//     the message that would inform the parent", but gains the state
//     message, keeping totals symmetric);
//   - replacement pools: node j on level i >= 1 owns the k^(k-i)
//     consecutive processors starting at (i-1)·k^k + j·k^(k-i) + 1; the
//     root owns 1..k^k.
//
// With these constants the Number of Retirements Lemma holds with room to
// spare: a level-i node accumulates at most 3·k^(k+1-i) + k^(k-i) age over
// the whole workload and therefore retires fewer than k^(k-i) times, so its
// pool never empties; level-k nodes never retire at all, and leaves handle
// exactly 2 messages.
package core

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// Tree is the communication tree serving an arbitrary sequential object
// (RootState) with O(k) per-processor message load. Operations are
// submitted with Do and run to quiescence (the paper's sequential model).
type Tree struct {
	net   *sim.Network
	proto *proto
	k     int
}

// Option configures a Tree (and therefore a Counter).
type Option func(*config)

type config struct {
	retireAge int // -1: default 4k; 0: retirement disabled
	simOpts   []sim.Option
}

// WithRetireAge overrides the retirement threshold (default 4k). Used by
// the threshold-ablation experiment. A value of 0 disables retirement
// entirely, degenerating the tree into a static root bottleneck.
func WithRetireAge(age int) Option {
	if age < 0 {
		panic(fmt.Sprintf("core: negative retirement age %d", age))
	}
	return func(c *config) { c.retireAge = age }
}

// WithSimOptions forwards options to the underlying network.
func WithSimOptions(opts ...sim.Option) Option {
	return func(c *config) { c.simOpts = append(c.simOpts, opts...) }
}

// NewTree creates a communication tree of arity k (n = k^(k+1) processors)
// serving the given root state.
func NewTree(k int, state RootState, opts ...Option) *Tree {
	cfg := config{retireAge: -1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.retireAge == -1 {
		cfg.retireAge = 4 * k
	}
	pr := newProto(k, cfg.retireAge, state, true)
	return &Tree{
		net:   sim.New(pr.g.n, pr, cfg.simOpts...),
		proto: pr,
		k:     k,
	}
}

// Do executes one operation initiated by processor p against the root
// state, running the network to quiescence, and returns the root's reply.
func (t *Tree) Do(p sim.ProcID, req any) (any, error) {
	t.proto.curReq = req
	id := t.net.StartOp(p, t.proto.initiate)
	if err := t.net.Run(); err != nil {
		return nil, err
	}
	t.proto.checks.endOp()
	reply, ok := t.TakeReply(id)
	if !ok {
		return nil, fmt.Errorf("core: operation by %v terminated without a reply", p)
	}
	return reply, nil
}

// TakeReply returns the reply delivered to the completed operation id and
// forgets it; ok is false when the operation is unknown, unfinished, or
// already read.
func (t *Tree) TakeReply(id sim.OpID) (any, bool) {
	return t.proto.ops.Take(id)
}

// K returns the arity of the communication tree.
func (t *Tree) K() int { return t.k }

// N returns the number of processors, n = k^(k+1).
func (t *Tree) N() int { return t.net.N() }

// Net exposes the underlying network.
func (t *Tree) Net() *sim.Network { return t.net }

// State returns the live root state (owned by the root's current
// processor; read it only at quiescence).
func (t *Tree) State() RootState { return t.proto.root }

// RetireAge returns the retirement threshold in effect (0 = disabled).
func (t *Tree) RetireAge() int { return t.proto.retireAge }

// Stats returns protocol-level counters.
func (t *Tree) Stats() Stats { return t.proto.stats }

// CloneTree returns an independent deep copy of the tree and its network.
func (t *Tree) CloneTree() (*Tree, error) {
	net, err := t.net.Clone()
	if err != nil {
		return nil, err
	}
	return &Tree{net: net, proto: net.Protocol().(*proto), k: t.k}, nil
}

// Violations returns the lemma violations recorded so far (at most the
// first 64) and the total violation count. Both are zero for the default
// configuration — the test suite asserts this; ablation configurations
// use them as measurements.
func (t *Tree) Violations() ([]string, int64) {
	return append([]string(nil), t.proto.checks.violations...), t.proto.checks.violationCount
}

// GrowOldMax returns the largest per-operation message count observed at an
// inner node that did not retire during that operation (the Grow Old Lemma
// bounds it by 4).
func (t *Tree) GrowOldMax() int {
	return t.proto.checks.growOldMax
}

// RetirePerOpMax returns the largest number of retirements of a single node
// within one operation (the Retirement Lemma bounds it by 1).
func (t *Tree) RetirePerOpMax() int {
	return t.proto.checks.retirePerOpMax
}

// LeafLoad returns the number of messages processor p sent or received in
// its role as a leaf: its own requests and replies plus one notification
// per retirement of its level-k parent. The Leaf Node Work Lemma bounds
// this by a small constant.
func (t *Tree) LeafLoad(p sim.ProcID) int64 { return t.proto.leafLoad[p] }

// NodeInfo is a read-only snapshot of one inner node, exposed for the
// structure visualizer (Figure 4) and the lemma tests.
type NodeInfo struct {
	Level, Pos int
	Cur        sim.ProcID
	PoolStart  sim.ProcID
	PoolSize   int
	Retired    int
	Age        int
}

// Nodes returns snapshots of all inner nodes in level order.
func (t *Tree) Nodes() []NodeInfo {
	out := make([]NodeInfo, len(t.proto.nodes))
	for i := range t.proto.nodes {
		nd := &t.proto.nodes[i]
		out[i] = NodeInfo{
			Level:     nd.level,
			Pos:       nd.pos,
			Cur:       nd.cur,
			PoolStart: nd.poolStart,
			PoolSize:  nd.poolSize,
			Retired:   nd.retired,
			Age:       nd.age,
		}
	}
	return out
}

// HostedInner reports whether processor p ever worked for an inner node
// during the run so far (used by the Leaf Node Work Lemma test: processors
// that never hosted an inner node must have load exactly 2 after the
// canonical workload).
func (t *Tree) HostedInner(p sim.ProcID) bool {
	for i := range t.proto.nodes {
		nd := &t.proto.nodes[i]
		if p >= nd.poolStart && int(p-nd.poolStart) <= nd.retired {
			return true
		}
	}
	return false
}

// Counter is the paper's communication-tree distributed counter in the
// paper's own model: the Tree serving a counter as its root state, one
// operation at a time, with the Section 4 lemma instrumentation on. It is
// the handle the lemma experiments, the visualizer and the adversary use;
// concurrent runs and the rt backend take the protocol through NewMachine
// instead.
type Counter struct {
	*Tree
}

var _ counter.Cloneable = (*Counter)(nil)

// algoName is the paper's counter in the registry and in reports.
const algoName = "ctree"

// New creates the counter for the tree of arity k over exactly n = k^(k+1)
// processors.
func New(k int, opts ...Option) *Counter {
	return &Counter{Tree: NewTree(k, &counterState{}, opts...)}
}

// NewForSize creates the counter for at least n processors, rounding n up
// to the next admissible size k·k^k as the paper prescribes. The network
// size is Counter.N(), which may exceed the request.
func NewForSize(n int, opts ...Option) *Counter {
	return New(KForSize(n), opts...)
}

// Machine implements counter.Describer for a tree whose root state is the
// counter. Serial: retirement rewrites a node's current processor and the
// forwarding table that every receiver's ensureRole consults, so the rt
// backend must serialize all protocol callbacks rather than run receivers
// concurrently. Linearizable: the root applies operations in arrival order
// and replies directly to initiators, so values respect real-time order
// under every schedule (experiment E13).
func (pr *proto) Machine() counter.Machine {
	return counter.Machine{
		Name:  algoName,
		N:     pr.g.n,
		Proto: pr,
		Initiate: func(nw sim.Transport, p sim.ProcID) {
			pr.initiateReq(nw, p, nil)
		},
		Value: func(id sim.OpID) (int, bool) {
			reply, ok := pr.ops.Take(id)
			if !ok {
				return 0, false
			}
			return reply.(int), true
		},
		Guarantee: counter.Exact(counter.Linearizable),
		Serial:    true,
	}
}

// NewMachine returns the backend-independent protocol descriptor for at
// least n processors (the size rounds up to k^(k+1)) — what both backends
// run. Lemma instrumentation stays off: its per-operation windows assume
// the sequential model.
func NewMachine(n int) counter.Machine {
	k := KForSize(n)
	return newProto(k, 4*k, &counterState{}, false).Machine()
}

// Name implements counter.Counter.
func (c *Counter) Name() string { return algoName }

// Value returns the root's current counter value (= operations completed).
func (c *Counter) Value() int { return c.proto.root.(*counterState).val }

// Inc implements counter.Counter.
func (c *Counter) Inc(p sim.ProcID) (int, error) {
	reply, err := c.Do(p, nil)
	if err != nil {
		return 0, err
	}
	return reply.(int), nil
}

// Clone implements counter.Cloneable.
func (c *Counter) Clone() (counter.Counter, error) {
	tr, err := c.CloneTree()
	if err != nil {
		return nil, err
	}
	return &Counter{Tree: tr}, nil
}
