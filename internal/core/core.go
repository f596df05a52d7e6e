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
// priority queue", both built on Tree in internal/ext. New builds the
// counter instantiation, and NewMachine the same counter with its lemma
// instrumentation off for the registry's backends.
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
// # Message passing
//
// The handoff carries the role. Each processor owns its status in the pools
// it is in — waiting, holding or retired, for at most the root and one inner
// node, since the pools of levels 1..k tile 1..n — and a node's table (age,
// neighbor processors) and the root's state belong to the node's holder:
// no other processor reads or writes them. The retiring processor marks
// itself retired and sends the k+2 messages; the successor takes the role
// when the job message lands (for the root, the job carrying the root
// state), merges the parent and child messages into the table, and holds a
// message that reaches it for the role before the job, serving it when the
// job lands. A retired processor forwards to its successor. The rt backend
// therefore runs the tree's receivers concurrently. Under message loss a
// lost job strands its role and the operations behind it wedge: the paper's
// model has no loss.
//
// The lemma instrumentation (checks.go) is the exception: a global observer
// of the run, not protocol state, which only the simulated Tree of New
// turns on. NewMachine, what both backends run, leaves it off.
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
// (RootState) with O(k) per-processor message load, in the paper's own
// model: a counter.Sim over the tree's protocol with the Section 4 lemma
// instrumentation on, plus the readouts of that instrumentation and of the
// tree's structure. The Sim is the counter — Inc, Start, the hooks, Loads,
// Clone — and Do submits a general root-state operation, run to quiescence.
// It is the handle the lemma experiments, the visualizer, the adversary and
// the extension data types use; concurrent runs and the rt backend take the
// protocol through NewMachine instead.
type Tree struct {
	*counter.Sim
	proto *proto
}

// Option configures a Tree.
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
	return &Tree{Sim: counter.OnSim(pr.Machine(), cfg.simOpts...), proto: pr}
}

// algoName is the paper's counter in the registry and in reports.
const algoName = "ctree"

// New creates the counter for the tree of arity k over exactly n = k^(k+1)
// processors: the Tree serving a counter as its root state.
func New(k int, opts ...Option) *Tree {
	return NewTree(k, &counterState{}, opts...)
}

// NewForSize creates the counter for at least n processors, rounding n up
// to the next admissible size k·k^k as the paper prescribes. The network
// size is Tree.N(), which may exceed the request.
func NewForSize(n int, opts ...Option) *Tree {
	return New(KForSize(n), opts...)
}

// Do executes one operation initiated by processor p against the root
// state, running the network to quiescence, and returns the root's reply.
// The network frees the operation's record with its last event.
func (t *Tree) Do(p sim.ProcID, req any) (any, error) {
	pr, nw := t.proto, t.Net()
	id := nw.StartOp(p, func(tr sim.Transport, p sim.ProcID) { pr.initiateReq(tr, p, req) })
	if err := nw.Run(); err != nil {
		return nil, err
	}
	reply, ok := pr.ops.Take(id)
	if !ok {
		return nil, fmt.Errorf("core: operation by %v terminated without a reply", p)
	}
	return reply, nil
}

// K returns the arity of the communication tree.
func (t *Tree) K() int { return t.proto.g.k }

// State returns the live root state (owned by the root's current
// processor; read it only at quiescence). It is nil while the root's
// state-carrying handoff message is in flight, or after it was lost.
func (t *Tree) State() RootState { return t.proto.root }

// RetireAge returns the retirement threshold in effect (0 = disabled).
func (t *Tree) RetireAge() int { return t.proto.retireAge }

// Stats returns protocol-level counters, summed over the processors (Ops is
// the network's count of operations started). Read it at quiescence.
func (t *Tree) Stats() Stats {
	st := t.proto.totals()
	st.Ops = int64(t.Ops())
	return st
}

// CloneTree returns an independent deep copy of the tree and its network.
func (t *Tree) CloneTree() (*Tree, error) {
	s, err := t.Clone()
	if err != nil {
		return nil, err
	}
	return &Tree{Sim: s, proto: s.Net().Protocol().(*proto)}, nil
}

// Violations returns the lemma violations recorded so far (at most the
// first 64) and the total violation count. Both are zero for the default
// configuration — the test suite asserts this; ablation configurations
// use them as measurements.
func (t *Tree) Violations() ([]string, int64) {
	t.proto.checks.endOp()
	return append([]string(nil), t.proto.checks.violations...), t.proto.checks.violationCount
}

// GrowOldMax returns the largest per-operation message count observed at an
// inner node that did not retire during that operation (the Grow Old Lemma
// bounds it by 4).
func (t *Tree) GrowOldMax() int {
	t.proto.checks.endOp()
	return t.proto.checks.growOldMax
}

// RetirePerOpMax returns the largest number of retirements of a single node
// within one operation (the Retirement Lemma bounds it by 1).
func (t *Tree) RetirePerOpMax() int {
	t.proto.checks.endOp()
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

// Nodes returns snapshots of all inner nodes in level order. Read it at
// quiescence.
func (t *Tree) Nodes() []NodeInfo {
	pr := t.proto
	out := make([]NodeInfo, len(pr.nodes))
	for id := range pr.nodes {
		nd := &pr.nodes[id]
		cur := pr.holder(id)
		out[id] = NodeInfo{
			Level:     nd.level,
			Pos:       nd.pos,
			Cur:       cur,
			PoolStart: nd.poolStart,
			PoolSize:  nd.poolSize,
			Retired:   int(cur - nd.poolStart),
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
	pr := t.proto
	if pr.status[p] != waiting {
		return true
	}
	return int(p) <= pr.g.kPowK && pr.status[pr.slot(p, 0)] != waiting
}

// Machine implements counter.Describer: the tree as a counter, its
// operations started with no request. Value reads an integer reply; a tree
// whose root state answers otherwise (the flip-bit, the priority queue)
// reports ok == false, so Inc on it is an error. Every handler reads and
// writes only its receiver's state (see proto), so the rt backend runs
// receivers concurrently. Linearizable: the root applies operations in
// arrival order and replies directly to initiators, so values respect
// real-time order under every schedule (experiment E13).
func (pr *proto) Machine() counter.Machine {
	return counter.Machine{
		Name:     algoName,
		N:        pr.g.n,
		Proto:    pr,
		Initiate: pr.initiate,
		Value: func(id sim.OpID) (int, bool) {
			reply, _ := pr.ops.Take(id)
			v, ok := reply.(int)
			return v, ok
		},
		Guarantee: counter.Exact(counter.Linearizable),
	}
}

// NewMachine returns the backend-independent protocol descriptor for at
// least n processors (the size rounds up to k^(k+1)) — what both backends
// run. Lemma instrumentation stays off: it is a global observer, and its
// per-operation windows assume the sequential model.
func NewMachine(n int) counter.Machine {
	k := KForSize(n)
	return newProto(k, 4*k, &counterState{}, false).Machine()
}
