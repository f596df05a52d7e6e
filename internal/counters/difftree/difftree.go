// Package difftree implements diffracting trees (Shavit & Zemach, SPAA
// 1994; steady-state analysis with Upfal, SPAA 1996) — the related-work
// counter that layers "prisms" over a tree of toggle balancers.
//
// The tree of width w = 2^d is itself a counting network: a token entering
// the root follows toggled turns to one of w leaf counters, and leaf i
// hands out i, i+w, i+2w, .... The prism optimization pairs two tokens that
// meet at a node within a small window and "diffracts" one left and one
// right without touching the toggle — the pair leaves the node in the same
// aggregate state, so correctness is preserved while contention on the
// toggle (the hot spot) drops.
//
// In the paper's sequential regime prisms never pair, every token toggles
// the root, and the root's host is a Θ(n) bottleneck; under concurrency
// (experiment E10) diffraction visibly removes root traffic. Both regimes
// matter to the reproduction: the first shows the lower bound biting, the
// second reproduces the effect diffracting trees were invented for.
package difftree

import (
	"fmt"
	"sync/atomic"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

type (
	// tokenPayload is a token about to enter inner node Node (heap index)
	// at depth Level with partial leaf index Idx.
	tokenPayload struct {
		Node   int
		Level  int
		Idx    int
		Origin sim.ProcID
	}
	// exitPayload delivers a token to leaf counter Idx's owner.
	exitPayload struct {
		Idx    int
		Origin sim.ProcID
	}
	// valuePayload returns the assigned value.
	valuePayload struct{ Val int }
	// prismTimer expires a parked token.
	prismTimer struct {
		Node int
		Seq  int
	}
)

func (tokenPayload) Kind() string { return "token" }
func (exitPayload) Kind() string  { return "exit" }
func (valuePayload) Kind() string { return "value" }
func (prismTimer) Kind() string   { return "prism-timer" }

// dnode is an inner node: a toggle plus a one-slot prism.
type dnode struct {
	host   sim.ProcID
	toggle bool
	// parked is the token waiting in the prism (nil when empty), and tok
	// the adopted continuation of its operation: a diffracting partner
	// routes the parked token onward inside the parked operation's own
	// causal chain rather than its own.
	parked *tokenPayload
	tok    sim.OpToken
	seq    int
}

type proto struct {
	n, width, depth int
	window          int64
	nodes           []dnode // heap-indexed, root at 1; len = width
	leafCount       []int

	// ops tracks the in-flight token per initiator and records each
	// operation's delivered value.
	ops *counter.Ops[struct{}, int]

	// diffracted counts token pairs that bypassed a toggle. Accessed
	// atomically: node hosts on different rt goroutines all increment it.
	diffracted int64
	// toggles counts toggle uses per node (index as nodes).
	toggles []int64
}

var _ sim.CloneableProtocol = (*proto)(nil)

func newProto(n, width int, window int64) *proto {
	if width < 2 || width&(width-1) != 0 {
		panic(fmt.Sprintf("difftree: width %d must be a power of two >= 2", width))
	}
	depth := 0
	for 1<<depth < width {
		depth++
	}
	pr := &proto{
		n:         n,
		width:     width,
		depth:     depth,
		window:    window,
		nodes:     make([]dnode, width), // slots 1..width-1 used
		leafCount: make([]int, width),
		ops:       counter.NewOps[struct{}, int](n),
		toggles:   make([]int64, width),
	}
	for i := 1; i < width; i++ {
		pr.nodes[i].host = sim.ProcID((i-1)%n + 1)
	}
	for i := 0; i < width; i++ {
		pr.leafCount[i] = i
	}
	return pr
}

func (pr *proto) leafOwner(idx int) sim.ProcID {
	return sim.ProcID(idx%pr.n + 1)
}

func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	nw.Send(pr.nodes[1].host, tokenPayload{Node: 1, Level: 0, Idx: 0, Origin: p})
}

// route sends a token onward after it resolved direction at node tk.Node:
// right == true sets the level bit of the leaf index.
func (pr *proto) route(nw sim.Transport, tk tokenPayload, right bool) {
	pr.routeWith(nw.Send, tk, right)
}

// routeWith is route with an explicit send function, so a diffracted
// partner can be forwarded inside its own operation (sim.SendAs).
func (pr *proto) routeWith(send func(sim.ProcID, sim.Payload), tk tokenPayload, right bool) {
	idx := tk.Idx
	child := tk.Node * 2
	if right {
		idx |= 1 << tk.Level
		child++
	}
	if tk.Level+1 == pr.depth {
		send(pr.leafOwner(idx), exitPayload{Idx: idx, Origin: tk.Origin})
		return
	}
	send(pr.nodes[child].host, tokenPayload{
		Node:   child,
		Level:  tk.Level + 1,
		Idx:    idx,
		Origin: tk.Origin,
	})
}

// toggleRoute resolves a token through the node's toggle.
func (pr *proto) toggleRoute(nw sim.Transport, tk tokenPayload) {
	pr.toggleRouteWith(nw.Send, tk)
}

// toggleRouteWith is toggleRoute with an explicit send function, for the
// prism-expiry path where the token continues through its adopted
// continuation rather than the (detached) timer delivery.
func (pr *proto) toggleRouteWith(send func(sim.ProcID, sim.Payload), tk tokenPayload) {
	nd := &pr.nodes[tk.Node]
	right := nd.toggle
	nd.toggle = !nd.toggle
	pr.toggles[tk.Node]++
	pr.routeWith(send, tk, right)
}

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case tokenPayload:
		nd := &pr.nodes[pl.Node]
		if nd.parked != nil {
			// Diffraction: the parked partner goes left, the arriving
			// token right; the toggle is untouched. The partner continues
			// inside its own operation through the adopted token.
			partner := *nd.parked
			tok := nd.tok
			nd.parked = nil
			nd.tok = sim.OpToken{}
			atomic.AddInt64(&pr.diffracted, 1)
			pr.routeWith(func(to sim.ProcID, p sim.Payload) { nw.SendAs(tok, to, p) }, partner, false)
			pr.route(nw, pl, true)
			return
		}
		if pr.window == 0 {
			pr.toggleRoute(nw, pl)
			return
		}
		// Park: the operation is held open by the adopted token alone; the
		// expiry timer is detached so that a timer outliving a diffraction
		// does not delay the diffracted operation's completion.
		tk := pl
		nd.seq++
		nd.parked = &tk
		nd.tok = nw.Adopt()
		nw.AfterDetached(pr.window, prismTimer{Node: pl.Node, Seq: nd.seq})
	case prismTimer:
		nd := &pr.nodes[pl.Node]
		if nd.parked != nil && nd.seq == pl.Seq {
			// Un-paired expiry: the detached timer carries no operation,
			// so the token continues through its adopted continuation.
			tk := *nd.parked
			tok := nd.tok
			nd.parked = nil
			nd.tok = sim.OpToken{}
			pr.toggleRouteWith(func(to sim.ProcID, p sim.Payload) { nw.SendAs(tok, to, p) }, tk)
		}
	case exitPayload:
		val := pr.leafCount[pl.Idx]
		pr.leafCount[pl.Idx] += pr.width
		nw.Send(pl.Origin, valuePayload{Val: val})
	case valuePayload:
		pr.ops.Finish(nw, msg.To, pl.Val)
	default:
		panic(fmt.Sprintf("difftree: unexpected payload %T", msg.Payload))
	}
}

func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.nodes = make([]dnode, len(pr.nodes))
	copy(cp.nodes, pr.nodes)
	for i := range cp.nodes {
		if pr.nodes[i].parked != nil {
			tk := *pr.nodes[i].parked
			cp.nodes[i].parked = &tk
		}
	}
	cp.leafCount = append([]int(nil), pr.leafCount...)
	cp.ops = pr.ops.Clone()
	cp.toggles = append([]int64(nil), pr.toggles...)
	return &cp
}

// Machine implements counter.Describer. Each inner node's toggle and prism
// live at its host processor and each leaf counter at its owner, so handlers
// may run concurrently per processor. Quiescent: like the counting network,
// the tree of toggles (with or without diffraction) preserves the step
// property under any schedule, but a token stalled before its leaf counter
// can be overtaken, so real-time order is not guaranteed.
func (pr *proto) Machine() counter.Machine {
	return counter.Machine{
		Name:      "difftree",
		N:         pr.n,
		Proto:     pr,
		Initiate:  pr.initiate,
		Value:     pr.ops.Take,
		Guarantee: counter.Exact(counter.Quiescent),
	}
}

// Option configures the counter.
type Option func(*cfg)

type cfg struct {
	width  int
	window int64
}

// WithWidth sets the number of leaf counters (a power of two >= 2); the
// default is the smallest power of two >= min(n, 8).
func WithWidth(w int) Option {
	return func(c *cfg) { c.width = w }
}

// WithWindow sets the prism pairing window in time units (default 0: no
// diffraction — the sequential regime).
func WithWindow(w int64) Option {
	if w < 0 {
		panic(fmt.Sprintf("difftree: negative window %d", w))
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
	if c.width == 0 {
		c.width = 2
		for c.width < n && c.width < 8 {
			c.width <<= 1
		}
	}
	return newProto(n, c.width, c.window).Machine()
}

// Diffracted returns the number of token pairs that bypassed a toggle so far
// on the diffracting tree m describes (m must come from NewMachine).
func Diffracted(m counter.Machine) int64 { return atomic.LoadInt64(&m.Proto.(*proto).diffracted) }

// RootToggles returns how often the root toggle of the diffracting tree m
// describes was used — the contention hot spot diffraction exists to
// relieve.
func RootToggles(m counter.Machine) int64 { return m.Proto.(*proto).toggles[1] }
