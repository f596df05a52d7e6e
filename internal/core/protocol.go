package core

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// Protocol messages. Every role-addressed payload carries the target node
// index so the receiving processor can dispatch among the roles it serves
// (a processor may simultaneously work for the root and one other inner
// node, plus its own leaf). All payloads are O(log n)-bit values, matching
// the paper's "were able to keep the length of messages as short as
// O(log n) bits".
const leafTarget = -1

type (
	// incPayload is "inc from p" (or, generically, "op from p"): forwarded
	// leaf -> ... -> root. Req is the operation applied at the root; the
	// paper's counter sends nil (inc needs no argument).
	incPayload struct {
		Target int
		Origin sim.ProcID
		Req    any
	}
	// valuePayload is the root's answer to the initiator.
	valuePayload struct{ Reply any }
	// handoffJobPayload tells the successor it now works for Node. For
	// robustness it carries the full neighbor table; the separate
	// handoffParentPayload / handoffChildPayload messages reproduce the
	// paper's k+2 message accounting and let the receiver cross-check.
	// For the root, a second job message stands in for the paper's
	// value-carrying message ("It additionally informs the new processor
	// of the counter value val"), keeping the k+2 total.
	handoffJobPayload struct {
		Node       int
		Retirement int
		ParentProc sim.ProcID
	}
	handoffParentPayload struct {
		Node       int
		ParentProc sim.ProcID
	}
	handoffChildPayload struct {
		Node      int
		Idx       int
		ChildProc sim.ProcID
	}
	// newIDPayload announces that Changed's current processor is NewProc.
	// Target identifies the receiving role (leafTarget for leaves).
	newIDPayload struct {
		Target  int
		Changed int
		NewProc sim.ProcID
	}
)

func (incPayload) Kind() string           { return "inc-from" }
func (valuePayload) Kind() string         { return "value" }
func (handoffJobPayload) Kind() string    { return "handoff-job" }
func (handoffParentPayload) Kind() string { return "handoff-parent" }
func (handoffChildPayload) Kind() string  { return "handoff-child" }
func (newIDPayload) Kind() string         { return "new-id" }

// node is the state of one inner node of the communication tree. The state
// is owned by the node's current processor; the slice-of-structs layout is
// an implementation convenience, not shared memory — every access happens in
// the delivery context of the owning processor.
type node struct {
	level, pos int
	cur        sim.ProcID
	poolStart  sim.ProcID
	poolSize   int
	retired    int
	age        int
	parentProc sim.ProcID   // known current processor of the parent node
	childProc  []sim.ProcID // known current processors of the children
}

// fwdKey identifies a (processor, role) pair the processor once held.
type fwdKey struct {
	proc sim.ProcID
	node int
}

// proto is the communication-tree protocol, generic over the root state.
type proto struct {
	g         geometry
	retireAge int // age threshold; 0 disables retirement (ablation)
	root      RootState
	nodes     []node
	// leafParent[l] is leaf l's knowledge of its parent's current processor.
	leafParent []sim.ProcID
	// leafLoad[p] counts the messages processor p sent or received in its
	// role as a leaf (as opposed to any inner-node roles it hosts): its own
	// inc request, the value answer, and parent-retirement notifications.
	// The Leaf Node Work Lemma bounds it.
	leafLoad []int64
	// fwd records, per retired (processor, role), the successor processor:
	// the "proper handshaking protocol" of the paper, implemented as
	// successor forwarding for messages addressed via stale neighbor tables.
	fwd map[fwdKey]sim.ProcID

	// curReq is the request of the operation being initiated (sequential
	// model: at most one in flight).
	curReq any
	// ops tracks the in-flight operation per initiating leaf and records
	// each operation's delivered reply — shared with every other counter
	// implementation via counter.Ops.
	ops *counter.Ops[struct{}, any]

	stats  Stats
	checks *checker // nil when invariant checking is off
}

var _ sim.CloneableProtocol = (*proto)(nil)

// Stats aggregates protocol-level counters exposed for the experiments and
// the lemma tests.
type Stats struct {
	// Ops is the number of inc operations initiated.
	Ops int64
	// Retirements counts node retirements.
	Retirements int64
	// Forwarded counts messages that had to be forwarded because they were
	// addressed to a retired processor (the handshake overhead).
	Forwarded int64
	// PoolExhausted counts retirement attempts that found an empty pool
	// (impossible at the default threshold; possible in ablations).
	PoolExhausted int64
}

func newProto(k, retireAge int, state RootState, checks bool) *proto {
	g := newGeometry(k)
	pr := &proto{
		g:          g,
		retireAge:  retireAge,
		root:       state,
		nodes:      make([]node, g.nodeCount()),
		leafParent: make([]sim.ProcID, g.n+1),
		leafLoad:   make([]int64, g.n+1),
		ops:        counter.NewOps[struct{}, any](g.n),
		fwd:        make(map[fwdKey]sim.ProcID),
	}
	for i := 0; i <= k; i++ {
		for j := 0; j < pow(k, i); j++ {
			id := g.nodeID(i, j)
			proc, pool := g.initialProc(i, j)
			nd := node{
				level:     i,
				pos:       j,
				cur:       proc,
				poolStart: proc,
				poolSize:  pool,
				childProc: make([]sim.ProcID, k),
			}
			if i > 0 {
				pLevel, pPos := g.levelPos(g.parent(i, j))
				pProc, _ := g.initialProc(pLevel, pPos)
				nd.parentProc = pProc
			}
			for c := 0; c < k; c++ {
				if i < k {
					cLevel, cPos := g.levelPos(g.childNode(i, j, c))
					cProc, _ := g.initialProc(cLevel, cPos)
					nd.childProc[c] = cProc
				} else {
					nd.childProc[c] = g.leafChild(j, c)
				}
			}
			pr.nodes[id] = nd
		}
	}
	for p := 1; p <= g.n; p++ {
		parentNode := g.leafParentNode(sim.ProcID(p))
		pr.leafParent[p] = pr.nodes[parentNode].cur
	}
	if checks {
		pr.checks = newChecker(g, retireAge, pr.nodes)
	}
	return pr
}

// initiate is the operation start: leaf p sends "op from p" to its parent.
func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.initiateReq(nw, p, pr.curReq)
}

func (pr *proto) initiateReq(nw sim.Transport, p sim.ProcID, req any) {
	pr.ops.Begin(nw, p)
	pr.stats.Ops++
	if pr.checks != nil {
		pr.checks.beginOp()
	}
	target := pr.g.leafParentNode(p)
	pr.leafLoad[p]++
	nw.Send(pr.leafParent[p], incPayload{Target: target, Origin: p, Req: req})
}

// Deliver implements sim.Protocol.
func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case incPayload:
		if !pr.ensureRole(nw, msg.To, pl.Target, msg.Payload) {
			return
		}
		pr.handleInc(nw, pl)
	case valuePayload:
		pr.leafLoad[msg.To]++
		pr.ops.Finish(nw, msg.To, pl.Reply)
	case newIDPayload:
		if pl.Target == leafTarget {
			pr.leafLoad[msg.To]++
			pr.leafParent[msg.To] = pl.NewProc
			return
		}
		if !pr.ensureRole(nw, msg.To, pl.Target, msg.Payload) {
			return
		}
		pr.handleNewID(nw, pl)
	case handoffJobPayload:
		// State transfer is effected at retirement time (see retire); the
		// job message carries the authoritative table so the successor can
		// cross-check what it was handed. The check is skipped when the
		// role has already moved on again (possible under reordering
		// latencies in ablation configurations).
		nd := &pr.nodes[pl.Node]
		if nd.retired == pl.Retirement && nd.cur != msg.To {
			panic(fmt.Sprintf("core: handoff job for node %d delivered to %v, current %v",
				pl.Node, msg.To, nd.cur))
		}
	case handoffParentPayload, handoffChildPayload:
		// Pure accounting: these reproduce the paper's k+2 handoff message
		// count; their content duplicates what the job message carries.
	default:
		panic(fmt.Sprintf("core: unexpected payload %T", msg.Payload))
	}
}

// ensureRole checks that the receiving processor currently works for the
// target node; if it retired from that role, the message is forwarded to the
// successor (one extra message per stale hop — the paper's constant-overhead
// handshake) and false is returned. pl is the message's payload as it
// arrived — already boxed — so forwarding it allocates nothing; passing the
// type-switched value instead would box a second copy on every delivery,
// forwarded or not.
func (pr *proto) ensureRole(nw sim.Transport, proc sim.ProcID, target int, pl sim.Payload) bool {
	nd := &pr.nodes[target]
	if nd.cur == proc {
		return true
	}
	succ, ok := pr.fwd[fwdKey{proc: proc, node: target}]
	if !ok {
		panic(fmt.Sprintf("core: processor %v received message for node %d it never served (current %v)",
			proc, target, nd.cur))
	}
	pr.stats.Forwarded++
	nw.Send(succ, pl)
	return false
}

// handleInc processes "op from p" at a node: the root applies the request
// to its state and answers the initiator directly; any other node forwards
// to its parent. Either way the node's age grows by two (one receive, one
// send) and the node retires if it has grown old.
func (pr *proto) handleInc(nw sim.Transport, pl incPayload) {
	nd := &pr.nodes[pl.Target]
	if nd.level == 0 {
		nw.Send(pl.Origin, valuePayload{Reply: pr.root.Apply(pl.Req)})
	} else {
		parent := pr.g.parent(nd.level, nd.pos)
		nw.Send(nd.parentProc, incPayload{Target: parent, Origin: pl.Origin, Req: pl.Req})
	}
	nd.age += 2
	if pr.checks != nil {
		pr.checks.nodeMsgs(pl.Target, 2)
	}
	pr.maybeRetire(nw, pl.Target)
}

// handleNewID updates the receiver's neighbor table after a neighbor's
// retirement; receiving the notification ages the node and may cascade its
// own retirement (paper: "It may of course happen that this increment
// triggers the retirement of parent and children nodes").
func (pr *proto) handleNewID(nw sim.Transport, pl newIDPayload) {
	nd := &pr.nodes[pl.Target]
	switch {
	case nd.level > 0 && pr.g.parent(nd.level, nd.pos) == pl.Changed:
		nd.parentProc = pl.NewProc
	default:
		idx := pr.childIndex(pl.Target, pl.Changed)
		nd.childProc[idx] = pl.NewProc
	}
	nd.age++
	if pr.checks != nil {
		pr.checks.nodeMsgs(pl.Target, 1)
	}
	pr.maybeRetire(nw, pl.Target)
}

// childIndex finds which child slot of parent refers to node changed.
func (pr *proto) childIndex(parent, changed int) int {
	nd := &pr.nodes[parent]
	cLevel, cPos := pr.g.levelPos(changed)
	if cLevel != nd.level+1 || cPos/pr.g.k != nd.pos {
		panic(fmt.Sprintf("core: node %d notified by non-neighbor %d", parent, changed))
	}
	return cPos % pr.g.k
}

// maybeRetire retires the node if its age reached the threshold. "After
// incrementing its age value a node decides locally whether it should
// retire."
func (pr *proto) maybeRetire(nw sim.Transport, id int) {
	if pr.retireAge <= 0 {
		return
	}
	nd := &pr.nodes[id]
	if nd.age < pr.retireAge {
		return
	}
	if nd.retired+1 >= nd.poolSize {
		// Pool exhausted: the node soldiers on with its current processor.
		// Unreachable at the default threshold (Number of Retirements
		// Lemma); reachable in ablation configurations.
		pr.stats.PoolExhausted++
		if pr.checks != nil {
			pr.checks.poolExhausted(id)
		}
		nd.age = 0
		return
	}
	pr.retire(nw, id)
}

// retire hands the node to the next processor of its pool: "To retire the
// node updates its local values by setting age = 0 and id_new = id_old + 1;
// it then sends k+2 final messages [to the successor] ... the other k+1
// messages inform the node's parent and children about id_new."
func (pr *proto) retire(nw sim.Transport, id int) {
	nd := &pr.nodes[id]
	old := nd.cur
	succ := old + 1
	pr.stats.Retirements++
	if pr.checks != nil {
		pr.checks.retirement(id, nd.level, old, succ, nd.poolStart, nd.poolSize)
	}

	// k+2 handoff messages to the successor. For the root the parent slot
	// is replaced by the state-carrying message ("It additionally informs
	// the new processor of the counter value val and it saves the message
	// that would inform the parent").
	nw.Send(succ, handoffJobPayload{
		Node:       id,
		Retirement: nd.retired + 1,
		ParentProc: nd.parentProc,
	})
	if nd.level > 0 {
		nw.Send(succ, handoffParentPayload{Node: id, ParentProc: nd.parentProc})
	} else {
		// Root: the state-carrying message keeps the k+2 count symmetric.
		nw.Send(succ, handoffJobPayload{Node: id, Retirement: nd.retired + 1})
	}
	for c := 0; c < pr.g.k; c++ {
		nw.Send(succ, handoffChildPayload{Node: id, Idx: c, ChildProc: nd.childProc[c]})
	}

	// State transfer: the node's current processor becomes the successor.
	// (Messages above carry the same data; effecting the transfer here
	// keeps role dispatch well defined for messages already in flight.)
	pr.fwd[fwdKey{proc: old, node: id}] = succ
	nd.cur = succ
	nd.retired++
	nd.age = 0

	// k+1 notifications: parent (unless root) and children learn id_new.
	if nd.level > 0 {
		nw.Send(nd.parentProc, newIDPayload{
			Target:  pr.g.parent(nd.level, nd.pos),
			Changed: id,
			NewProc: succ,
		})
	}
	if nd.level < pr.g.k {
		for c := 0; c < pr.g.k; c++ {
			nw.Send(nd.childProc[c], newIDPayload{
				Target:  pr.g.childNode(nd.level, nd.pos, c),
				Changed: id,
				NewProc: succ,
			})
		}
		return
	}
	// Leaves all get the same note: one boxed payload serves the k of them.
	var note sim.Payload = newIDPayload{Target: leafTarget, Changed: id, NewProc: succ}
	for c := 0; c < pr.g.k; c++ {
		nw.Send(nd.childProc[c], note)
	}
}

// CloneProtocol implements sim.CloneableProtocol.
func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.root = pr.root.CloneState()
	cp.nodes = make([]node, len(pr.nodes))
	copy(cp.nodes, pr.nodes)
	for i := range cp.nodes {
		cp.nodes[i].childProc = append([]sim.ProcID(nil), pr.nodes[i].childProc...)
	}
	cp.leafParent = append([]sim.ProcID(nil), pr.leafParent...)
	cp.leafLoad = append([]int64(nil), pr.leafLoad...)
	cp.ops = pr.ops.Clone(nil)
	cp.fwd = make(map[fwdKey]sim.ProcID, len(pr.fwd))
	for k, v := range pr.fwd {
		cp.fwd[k] = v
	}
	if pr.checks != nil {
		cp.checks = pr.checks.clone()
	}
	return &cp
}
