package core

import (
	"fmt"
	"slices"

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
	// incWord is "inc from p": forwarded leaf -> ... -> root with the target
	// node and the origin packed into the message word
	// (sim.Pair(Target, Origin)). The paper's counter sends it: an inc needs
	// no argument, so its messages box nothing.
	incWord struct{}
	// incPayload is "op from p" for a tree whose operation carries a
	// request (the flip bit's and the priority queue's): Req is applied at
	// the root. The request is an arbitrary value and does not fit a word,
	// so this kind stays boxed, once at the leaf and again at each hop.
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

func (incWord) Kind() string              { return "inc-from" }
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
//
// A role only ever moves from its processor to the next one of its pool
// (retire), so the processors that have served the node are exactly
// [poolStart, cur]: the node's retirement count and the successor of any
// processor it left are both derived, never stored.
type node struct {
	level, pos int
	cur        sim.ProcID
	poolStart  sim.ProcID
	poolSize   int
	age        int
	parentProc sim.ProcID // known current processor of the parent node
}

// served reports whether processor p has worked for the node so far, its
// current processor included.
func (nd *node) served(p sim.ProcID) bool { return nd.poolStart <= p && p <= nd.cur }

// retirements is the number of times the node has handed its role on.
func (nd *node) retirements() int { return int(nd.cur - nd.poolStart) }

// proto is the communication-tree protocol, generic over the root state.
type proto struct {
	g         geometry
	retireAge int // age threshold; 0 disables retirement (ablation)
	root      RootState
	nodes     []node
	// childProc[id*k+c] is node id's knowledge of its c-th child's current
	// processor (a leaf's own id for level-k nodes).
	childProc []sim.ProcID
	// leafParent[l] is leaf l's knowledge of its parent's current processor.
	leafParent []sim.ProcID
	// leafLoad[p] counts the messages processor p sent or received in its
	// role as a leaf (as opposed to any inner-node roles it hosts): its own
	// inc request, the value answer, and parent-retirement notifications.
	// The Leaf Node Work Lemma bounds it.
	leafLoad []int64

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
	// PoolExhausted counts retirement attempts that found an empty pool:
	// impossible at the default threshold within the first n operations,
	// possible in ablations, and routine past n operations (from the second
	// round of the repeated canonical workload on).
	PoolExhausted int64
}

func newProto(k, retireAge int, state RootState, checks bool) *proto {
	g := newGeometry(k)
	pr := &proto{
		g:          g,
		retireAge:  retireAge,
		root:       state,
		nodes:      make([]node, g.nodeCount()),
		childProc:  make([]sim.ProcID, g.nodeCount()*k),
		leafParent: make([]sim.ProcID, g.n+1),
		leafLoad:   make([]int64, g.n+1),
		ops:        counter.NewOps[struct{}, any](g.n),
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
			}
			if i > 0 {
				pLevel, pPos := g.levelPos(g.parent(i, j))
				pProc, _ := g.initialProc(pLevel, pPos)
				nd.parentProc = pProc
			}
			children := pr.children(id)
			for c := range children {
				if i < k {
					cLevel, cPos := g.levelPos(g.childNode(i, j, c))
					children[c], _ = g.initialProc(cLevel, cPos)
				} else {
					children[c] = g.leafChild(j, c)
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

// children returns node id's row of the childProc arena.
func (pr *proto) children(id int) []sim.ProcID {
	k := pr.g.k
	return pr.childProc[id*k : id*k+k]
}

// initiate is the counter's operation start: an inc carries no request.
func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.initiateReq(nw, p, nil)
}

// initiateReq starts p's operation on req: leaf p sends "op from p" to its
// parent. The lemma checker's window for it opens here.
func (pr *proto) initiateReq(nw sim.Transport, p sim.ProcID, req any) {
	pr.ops.Begin(nw, p)
	pr.stats.Ops++
	if pr.checks != nil {
		pr.checks.beginOp()
	}
	pr.leafLoad[p]++
	pr.sendInc(nw, pr.leafParent[p], pr.g.leafParentNode(p), p, req)
}

// sendInc sends "op from origin" on req to node target's processor: in the
// message word for the counter's inc (a nil request), boxed otherwise.
func (pr *proto) sendInc(nw sim.Transport, to sim.ProcID, target int, origin sim.ProcID, req any) {
	if req == nil {
		nw.SendWord(to, incWord{}, sim.Pair(target, int(origin)))
		return
	}
	nw.Send(to, incPayload{Target: target, Origin: origin, Req: req})
}

// Deliver implements sim.Protocol.
func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case incWord:
		target, origin := sim.Unpair(msg.Word)
		if !pr.ensureRole(nw, msg.To, target, msg) {
			return
		}
		pr.handleInc(nw, target, sim.ProcID(origin), nil)
	case incPayload:
		if !pr.ensureRole(nw, msg.To, pl.Target, msg) {
			return
		}
		pr.handleInc(nw, pl.Target, pl.Origin, pl.Req)
	case valuePayload:
		pr.leafLoad[msg.To]++
		pr.ops.Finish(nw, msg.To, pl.Reply)
	case newIDPayload:
		if pl.Target == leafTarget {
			pr.leafLoad[msg.To]++
			pr.leafParent[msg.To] = pl.NewProc
			return
		}
		if !pr.ensureRole(nw, msg.To, pl.Target, msg) {
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
		if nd.retirements() == pl.Retirement && nd.cur != msg.To {
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
// target node; if it retired from that role, the message is forwarded to its
// successor proc+1 (one extra message per stale hop — the paper's
// constant-overhead handshake) and false is returned. The forward re-sends
// msg's payload as it arrived — a word kind with its word, a boxed payload
// in the box it came in — so it allocates nothing; passing the type-switched
// value instead would box a second copy on every delivery, forwarded or not.
func (pr *proto) ensureRole(nw sim.Transport, proc sim.ProcID, target int, msg sim.Message) bool {
	nd := &pr.nodes[target]
	if nd.cur == proc {
		return true
	}
	if !nd.served(proc) {
		panic(fmt.Sprintf("core: processor %v received message for node %d it never served (current %v)",
			proc, target, nd.cur))
	}
	pr.stats.Forwarded++
	nw.SendWord(proc+1, msg.Payload, msg.Word)
	return false
}

// handleInc processes "op from p" at a node: the root applies the request
// to its state and answers the initiator directly; any other node forwards
// to its parent. Either way the node's age grows by two (one receive, one
// send) and the node retires if it has grown old.
func (pr *proto) handleInc(nw sim.Transport, target int, origin sim.ProcID, req any) {
	nd := &pr.nodes[target]
	if nd.level == 0 {
		nw.Send(origin, valuePayload{Reply: pr.root.Apply(req)})
	} else {
		pr.sendInc(nw, nd.parentProc, pr.g.parent(nd.level, nd.pos), origin, req)
	}
	nd.age += 2
	if pr.checks != nil {
		pr.checks.nodeMsgs(target, 2)
	}
	pr.maybeRetire(nw, target)
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
		pr.children(pl.Target)[pr.childIndex(pl.Target, pl.Changed)] = pl.NewProc
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
	if nd.retirements()+1 >= nd.poolSize {
		// Pool exhausted: the node soldiers on with its current processor.
		// Within the paper's n operations this is unreachable at the default
		// threshold (Number of Retirements Lemma) and reachable only in
		// ablation configurations. Past them it is reached from the second
		// round of the repeated canonical workload on
		// (TestRepeatedCanonicalRounds), so long loaded runs take it
		// routinely.
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
	children := pr.children(id)
	old := nd.cur
	succ := old + 1
	retirement := nd.retirements() + 1
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
		Retirement: retirement,
		ParentProc: nd.parentProc,
	})
	if nd.level > 0 {
		nw.Send(succ, handoffParentPayload{Node: id, ParentProc: nd.parentProc})
	} else {
		// Root: the state-carrying message keeps the k+2 count symmetric.
		nw.Send(succ, handoffJobPayload{Node: id, Retirement: retirement})
	}
	for c, proc := range children {
		nw.Send(succ, handoffChildPayload{Node: id, Idx: c, ChildProc: proc})
	}

	// State transfer: the node's current processor becomes the successor.
	// (Messages above carry the same data; effecting the transfer here
	// keeps role dispatch well defined for messages already in flight, which
	// ensureRole forwards from old to succ.)
	nd.cur = succ
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
		for c, proc := range children {
			nw.Send(proc, newIDPayload{
				Target:  pr.g.childNode(nd.level, nd.pos, c),
				Changed: id,
				NewProc: succ,
			})
		}
		return
	}
	// Leaves all get the same note: one boxed payload serves the k of them.
	var note sim.Payload = newIDPayload{Target: leafTarget, Changed: id, NewProc: succ}
	for _, proc := range children {
		nw.Send(proc, note)
	}
}

// CloneProtocol implements sim.CloneableProtocol. The tree's state is flat
// slices of values, so the copy is a fixed number of slice copies whatever
// the tree's size or history.
func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.root = pr.root.CloneState()
	cp.nodes = slices.Clone(pr.nodes)
	cp.childProc = slices.Clone(pr.childProc)
	cp.leafParent = slices.Clone(pr.leafParent)
	cp.leafLoad = slices.Clone(pr.leafLoad)
	cp.ops = pr.ops.Clone()
	if pr.checks != nil {
		cp.checks = pr.checks.clone()
	}
	return &cp
}
