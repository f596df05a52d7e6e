// Package combining implements a software combining tree counter (Yew,
// Tzeng & Lawrie 1987; Goodman, Vernon & Woest 1989) — the first schemes the
// paper credits with "explicitly aiming at avoiding a bottleneck".
//
// Processors are the leaves of a binary tree; the root holds the counter
// value. A request climbs toward the root; when several requests meet at an
// inner node within a combining window they merge into one upward request,
// and the root's reply is split on the way back down, assigning each
// requester a distinct value from the combined range.
//
// The scheme's effectiveness depends entirely on concurrency: with
// sequential operations (the paper's lower-bound regime) nothing ever
// combines, every request traverses the full path alone, and the root's
// host remains a Θ(n) bottleneck — which is precisely why the paper's lower
// bound survives combining trees and why its Section 4 counter instead
// rotates processors. The concurrent experiments (E10) turn the window up
// and watch the root's message count fall.
package combining

import (
	"fmt"
	"sync/atomic"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// payloads
type (
	// reqPayload climbs the tree. Exactly one of FromLeaf (leaf request)
	// and FromNode/ChildBatch (combined request from a child node) is set.
	reqPayload struct {
		Node       int // target inner node
		FromLeaf   sim.ProcID
		FromNode   int // -1 when FromLeaf is set
		ChildBatch int
		Count      int
	}
	// respPayload descends with the base of the assigned value range.
	respPayload struct {
		Node  int
		Batch int
		Base  int
	}
	// valuePayload delivers a leaf's assigned value.
	valuePayload struct{ Val int }
	// windowTimer closes a combining window.
	windowTimer struct {
		Node int
		Seq  int
	}
)

func (reqPayload) Kind() string   { return "combine-request" }
func (respPayload) Kind() string  { return "combine-response" }
func (valuePayload) Kind() string { return "value" }
func (windowTimer) Kind() string  { return "window-timer" }

// contrib is one participant of a batch.
type contrib struct {
	fromLeaf   sim.ProcID // 0 if from a child node
	fromNode   int
	childBatch int
	count      int
	// tok is the adopted continuation of a request that merged into an
	// open window (invalid for the window-opening request, whose own
	// causal chain carries the batch): the response or value send at
	// distribution time is attributed to the merged operation through it,
	// so that operation stays pending until its reply actually lands.
	tok sim.OpToken
}

// batch accumulates requests at a node during a combining window.
type batch struct {
	seq      int
	contribs []contrib
	total    int
}

// cnode is one inner node of the combining tree.
type cnode struct {
	parent int // -1 for the root
	host   sim.ProcID
	// pending is the batch currently collecting (nil outside a window).
	pending *batch
	seq     int
	// inFlight maps batch ids to batches awaiting the parent's response.
	inFlight map[int]*batch
	nextID   int
	val      int // root only
	// free holds distributed batches for reuse, contribs backing array
	// included, so a steady-state window costs no allocation. Like the rest
	// of the node it is touched only in the host's execution context.
	free []*batch
}

type proto struct {
	n      int
	window int64
	nodes  []cnode
	// leafParent[p] is the inner node above leaf p (-1 when n == 1).
	leafParent []int
	// ops tracks the in-flight operation per initiator and records each
	// operation's delivered value.
	ops *counter.Ops[struct{}, int]
	val int // used only in the degenerate n == 1 case

	// combined counts requests that were merged into an existing batch —
	// the quantity the concurrency experiment watches. Accessed atomically:
	// it is the one piece of state inner nodes on different rt goroutines
	// share (every node's host increments it).
	combined int64
}

var _ sim.CloneableProtocol = (*proto)(nil)

// buildTree constructs inner nodes over the leaf range [lo, hi] and returns
// the subtree root's node index, or -1 for a single leaf.
func (pr *proto) buildTree(lo, hi, parent int) int {
	if lo == hi {
		pr.leafParent[lo] = parent
		return -1
	}
	id := len(pr.nodes)
	pr.nodes = append(pr.nodes, cnode{
		parent:   parent,
		host:     sim.ProcID(lo),
		inFlight: make(map[int]*batch),
	})
	mid := (lo + hi) / 2
	pr.buildTree(lo, mid, id)
	pr.buildTree(mid+1, hi, id)
	return id
}

func newProto(n int, window int64) *proto {
	pr := &proto{
		n:          n,
		window:     window,
		leafParent: make([]int, n+1),
		ops:        counter.NewOps[struct{}, int](n),
	}
	for p := range pr.leafParent {
		pr.leafParent[p] = -1
	}
	if n > 1 {
		pr.buildTree(1, n, -1)
	}
	return pr
}

func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	if pr.n == 1 {
		pr.ops.Finish(nw, p, pr.val)
		pr.val++
		return
	}
	parent := pr.leafParent[p]
	nw.Send(pr.nodes[parent].host, reqPayload{
		Node:     parent,
		FromLeaf: p,
		FromNode: -1,
		Count:    1,
	})
}

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case reqPayload:
		pr.handleReq(nw, pl)
	case respPayload:
		pr.handleResp(nw, pl)
	case valuePayload:
		pr.ops.Finish(nw, msg.To, pl.Val)
	case windowTimer:
		nd := &pr.nodes[pl.Node]
		if nd.pending != nil && nd.pending.seq == pl.Seq {
			pr.closeBatch(nw, pl.Node)
		}
	default:
		panic(fmt.Sprintf("combining: unexpected payload %T", msg.Payload))
	}
}

func (pr *proto) handleReq(nw sim.Transport, pl reqPayload) {
	nd := &pr.nodes[pl.Node]
	c := contrib{fromLeaf: pl.FromLeaf, fromNode: pl.FromNode, childBatch: pl.ChildBatch, count: pl.Count}
	if nd.pending == nil {
		nd.seq++
		b := nd.newBatch()
		b.seq, b.total = nd.seq, pl.Count
		b.contribs = append(b.contribs, c)
		nd.pending = b
		if pr.window > 0 {
			nw.After(pr.window, windowTimer{Node: pl.Node, Seq: nd.seq})
			return
		}
		pr.closeBatch(nw, pl.Node)
		return
	}
	// Combining: merge into the open window. The merged request sends
	// nothing now, so its operation would otherwise look complete; adopt
	// it so the eventual downward send re-enters its causal chain.
	c.tok = nw.Adopt()
	nd.pending.contribs = append(nd.pending.contribs, c)
	nd.pending.total += pl.Count
	atomic.AddInt64(&pr.combined, 1)
}

// newBatch returns an empty batch, recycled when the node has one.
func (nd *cnode) newBatch() *batch {
	if last := len(nd.free) - 1; last >= 0 {
		b := nd.free[last]
		nd.free = nd.free[:last]
		return b
	}
	return &batch{}
}

// closeBatch forwards the pending batch upward, or applies it at the root.
func (pr *proto) closeBatch(nw sim.Transport, node int) {
	nd := &pr.nodes[node]
	b := nd.pending
	nd.pending = nil
	if nd.parent == -1 {
		base := nd.val
		nd.val += b.total
		pr.distribute(nw, nd, b, base)
		return
	}
	id := nd.nextID
	nd.nextID++
	nd.inFlight[id] = b
	nw.Send(pr.nodes[nd.parent].host, reqPayload{
		Node:       nd.parent,
		FromNode:   node,
		ChildBatch: id,
		Count:      b.total,
	})
}

func (pr *proto) handleResp(nw sim.Transport, pl respPayload) {
	nd := &pr.nodes[pl.Node]
	b, ok := nd.inFlight[pl.Batch]
	if !ok {
		// A response for a batch already distributed can only be a
		// duplicated delivery (fault injection); it carries no new
		// information, so drop it rather than re-assign the range.
		return
	}
	delete(nd.inFlight, pl.Batch)
	pr.distribute(nw, nd, b, pl.Base)
}

// distribute splits a value range among the contributors of node nd's batch
// b and hands the spent batch back to the node for reuse. Sends for merged
// contributors are attributed to their own operations via the adopted
// tokens; the window opener's send rides the current delivery, which is
// already on its causal chain.
func (pr *proto) distribute(nw sim.Transport, nd *cnode, b *batch, base int) {
	offset := base
	for _, c := range b.contribs {
		var (
			to sim.ProcID
			pl sim.Payload
		)
		if c.fromNode == -1 {
			to, pl = c.fromLeaf, valuePayload{Val: offset}
		} else {
			to, pl = pr.nodes[c.fromNode].host, respPayload{Node: c.fromNode, Batch: c.childBatch, Base: offset}
		}
		if c.tok.Valid() {
			nw.SendAs(c.tok, to, pl)
		} else {
			nw.Send(to, pl)
		}
		offset += c.count
	}
	b.contribs = b.contribs[:0]
	nd.free = append(nd.free, b)
}

func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.nodes = make([]cnode, len(pr.nodes))
	copy(cp.nodes, pr.nodes)
	for i := range cp.nodes {
		src := &pr.nodes[i]
		cp.nodes[i].free = nil // recycled batches are scratch, never shared
		if src.pending != nil {
			b := *src.pending
			b.contribs = append([]contrib(nil), src.pending.contribs...)
			cp.nodes[i].pending = &b
		}
		cp.nodes[i].inFlight = make(map[int]*batch, len(src.inFlight))
		for id, bb := range src.inFlight {
			b := *bb
			b.contribs = append([]contrib(nil), bb.contribs...)
			cp.nodes[i].inFlight[id] = &b
		}
	}
	cp.leafParent = append([]int(nil), pr.leafParent...)
	cp.ops = pr.ops.Clone()
	return &cp
}

// Machine implements counter.Describer. Each inner node's batch state lives
// at its host processor, so handlers may run concurrently per processor.
// Linearizable: the root assigns value ranges to batches in arrival order,
// and an operation joins only batches that close after it started, so values
// respect real-time order — combining keeps linearizability while removing
// the root's message hot spot.
func (pr *proto) Machine() counter.Machine {
	return counter.Machine{
		Name:      "combining",
		N:         pr.n,
		Proto:     pr,
		Initiate:  pr.initiate,
		Value:     pr.ops.Take,
		Guarantee: counter.Exact(counter.Linearizable),
	}
}

// Option configures the counter.
type Option func(*cfg)

type cfg struct {
	window int64
}

// WithWindow sets the combining window in simulated time units (default 0:
// no combining — the sequential regime).
func WithWindow(w int64) Option {
	if w < 0 {
		panic(fmt.Sprintf("combining: negative window %d", w))
	}
	return func(c *cfg) { c.window = w }
}

// NewMachine returns the backend-independent protocol descriptor for n
// processors — what both backends run.
func NewMachine(n int, opts ...Option) counter.Machine {
	var c cfg
	for _, o := range opts {
		o(&c)
	}
	return newProto(n, c.window).Machine()
}

// Combined returns how many requests merged into an open window so far on
// the combining tree m describes (m must come from NewMachine).
func Combined(m counter.Machine) int64 { return atomic.LoadInt64(&m.Proto.(*proto).combined) }

// RootHost returns the processor hosting the root of the combining tree m
// describes — the sequential bottleneck.
func RootHost(m counter.Machine) sim.ProcID {
	pr := m.Proto.(*proto)
	if pr.n == 1 {
		return 1
	}
	return pr.nodes[0].host
}
