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
	"math/bits"
	"sync/atomic"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// token is a token about to enter inner node Node (heap index) at depth
// Level with partial leaf index Idx.
type token struct {
	Node   int
	Level  int
	Idx    int
	Origin sim.ProcID
}

// Message kinds. A token, its exit and its value travel in the message
// word: tokenWord carries sim.Pair(Node·width+Idx, Origin), the level
// following from the node; exitWord sim.Pair(Idx, Origin) to leaf counter
// Idx's owner; valueWord the assigned value; prismTimer, which expires a
// parked token, sim.Pair(Seq, Node) of the parking it expires.
type (
	tokenWord  struct{}
	exitWord   struct{}
	valueWord  struct{}
	prismTimer struct{}
)

func (tokenWord) Kind() string  { return "token" }
func (exitWord) Kind() string   { return "exit" }
func (valueWord) Kind() string  { return "value" }
func (prismTimer) Kind() string { return "prism-timer" }

// dnode is an inner node: a toggle plus a one-slot prism.
type dnode struct {
	host   sim.ProcID
	toggle bool
	// parked is the token waiting in the prism (nil when empty), and tok
	// the adopted continuation of its operation: a diffracting partner
	// routes the parked token onward inside the parked operation's own
	// causal chain rather than its own.
	parked *token
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
	nw.SendWord(pr.nodes[1].host, tokenWord{}, sim.Pair(pr.width, int(p)))
}

// send sends a word message inside the adopted operation tok when tok is
// valid, otherwise inside the current one.
func send(nw sim.Transport, tok sim.OpToken, to sim.ProcID, pl sim.Payload, w int64) {
	if tok.Valid() {
		nw.SendAs(tok, to, pl, w)
	} else {
		nw.SendWord(to, pl, w)
	}
}

// unpack returns the token a tokenWord's word carries.
func (pr *proto) unpack(w int64) token {
	at, origin := sim.Unpair(w)
	node := at / pr.width
	return token{Node: node, Level: bits.Len(uint(node)) - 1, Idx: at % pr.width, Origin: sim.ProcID(origin)}
}

// route sends a token onward after it resolved direction at node tk.Node:
// right == true sets the level bit of the leaf index. A valid tok forwards
// it inside that adopted operation (a diffracted partner, an expired parked
// token) rather than the current delivery's.
func (pr *proto) route(nw sim.Transport, tok sim.OpToken, tk token, right bool) {
	idx := tk.Idx
	child := tk.Node * 2
	if right {
		idx |= 1 << tk.Level
		child++
	}
	if tk.Level+1 < pr.depth {
		send(nw, tok, pr.nodes[child].host, tokenWord{}, sim.Pair(child*pr.width+idx, int(tk.Origin)))
		return
	}
	send(nw, tok, pr.leafOwner(idx), exitWord{}, sim.Pair(idx, int(tk.Origin)))
}

// toggleRoute resolves a token through the node's toggle; tok is route's.
func (pr *proto) toggleRoute(nw sim.Transport, tok sim.OpToken, tk token) {
	nd := &pr.nodes[tk.Node]
	right := nd.toggle
	nd.toggle = !nd.toggle
	pr.toggles[tk.Node]++
	pr.route(nw, tok, tk, right)
}

// arrive handles token tk entering its node in the current operation.
func (pr *proto) arrive(nw sim.Transport, tk token) {
	nd := &pr.nodes[tk.Node]
	if nd.parked != nil {
		// Diffraction: the parked partner goes left, the arriving token
		// right; the toggle is untouched. The partner continues inside its
		// own operation through the adopted token.
		partner := *nd.parked
		tok := nd.tok
		nd.parked = nil
		nd.tok = sim.OpToken{}
		atomic.AddInt64(&pr.diffracted, 1)
		pr.route(nw, tok, partner, false)
		pr.route(nw, sim.OpToken{}, tk, true)
		return
	}
	if pr.window == 0 {
		pr.toggleRoute(nw, sim.OpToken{}, tk)
		return
	}
	// Park: the operation is held open by the adopted token alone; the
	// expiry timer is detached so that a timer outliving a diffraction does
	// not delay the diffracted operation's completion.
	parked := tk // a copy, so only a parking arrival moves it to the heap
	nd.seq++
	nd.parked = &parked
	nd.tok = nw.Adopt()
	nw.AfterDetached(pr.window, prismTimer{}, sim.Pair(nd.seq, tk.Node))
}

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch msg.Payload.(type) {
	case tokenWord:
		pr.arrive(nw, pr.unpack(msg.Word))
	case prismTimer:
		seq, node := sim.Unpair(msg.Word)
		nd := &pr.nodes[node]
		if nd.parked != nil && nd.seq == seq {
			// Un-paired expiry: the detached timer carries no operation,
			// so the token continues through its adopted continuation.
			tk := *nd.parked
			tok := nd.tok
			nd.parked = nil
			nd.tok = sim.OpToken{}
			pr.toggleRoute(nw, tok, tk)
		}
	case exitWord:
		// Leaf counter idx hands its next value to origin.
		idx, origin := sim.Unpair(msg.Word)
		val := pr.leafCount[idx]
		pr.leafCount[idx] += pr.width
		nw.SendWord(sim.ProcID(origin), valueWord{}, int64(val))
	case valueWord:
		pr.ops.Finish(nw, msg.To, int(msg.Word))
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
