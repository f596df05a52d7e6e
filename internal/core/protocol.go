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
	// handoffJobPayload tells the successor it now works for Node and which
	// processor serves the node's parent; the successor takes the role when
	// it lands. The root, which has no parent, sends two: the paper's job
	// message and, in the parent message's slot, the one that "additionally
	// informs the new processor of the counter value val". That one carries
	// the root state (moved, not copied: the retiring processor gives its
	// reference up), and only a root job carrying state hands the root over.
	// The state is charged to the message's size by its own measure
	// (valueBits): the counter's value in log₂(val) bits.
	handoffJobPayload struct {
		Node       int
		Retirement int
		ParentProc sim.ProcID
		State      RootState
	}
	// handoffParentPayload and handoffChildPayload fill the rest of the
	// successor's table: the parent's processor and the c-th child's.
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

// node is one inner node of the communication tree. Its shape (level,
// position, replacement pool) is fixed at construction, and any processor
// may read it. Its table — age, the parent's processor and, in childProc,
// the children's — belongs to the role: only the processor holding the node
// reads or writes it, and the handoff messages carry it on to the
// successor, which takes it over when the job lands. The slice-of-structs
// layout is an implementation convenience, not shared memory. Processor ids
// in the table only grow (a role moves from p to p+1), so handoff and
// new-id messages merge into it by maximum, and one arriving late cannot
// take it backwards.
type node struct {
	level, pos int
	poolStart  sim.ProcID
	poolSize   int
	age        int
	parentProc sim.ProcID // known current processor of the parent node
}

// Statuses of one processor in one node's pool. A role only ever moves from
// a processor to the next one of its pool, so the processors that have
// served a node are its retired ones and its holder, in pool order.
const (
	waiting uint8 = iota // the node's job has not reached this processor
	holding              // this processor serves the node
	retired              // this processor handed the node on
)

// proto is the communication-tree protocol, generic over the root state.
//
// Every piece of protocol state belongs to one processor, and only that
// processor's callbacks touch it, so the tree runs on the rt backend's
// concurrent workers as on the simulator. Pools on levels 1..k tile 1..n
// level by level, so a processor is in the pool of exactly one inner node
// below the root and, for p <= k^k, of the root: it owns two status slots,
// p (that inner node) and n+p (the root; see slot), with their held lists.
// A node's table and, for the root, the root state belong to its holder.
type proto struct {
	g         geometry
	retireAge int // age threshold; 0 disables retirement (ablation)
	// root is the root's state; it travels in the root's state-carrying job
	// message, and is nil while that message is in flight.
	root  RootState
	nodes []node
	// childProc[id*k+c] is node id's knowledge of its c-th child's current
	// processor (a leaf's own id for level-k nodes).
	childProc []sim.ProcID
	// status[s] is slot s's standing in its pool, and held[s] the messages
	// for its node that reached it before the job, each holding its
	// operation open by an adopted token.
	status []uint8
	held   [][]heldMsg
	// leafParent[l] is leaf l's knowledge of its parent's current processor.
	leafParent []sim.ProcID
	// leafLoad[p] counts the messages processor p sent or received in its
	// role as a leaf (as opposed to any inner-node roles it hosts): its own
	// inc request, the value answer, and parent-retirement notifications.
	// The Leaf Node Work Lemma bounds it.
	leafLoad []int64
	// stats[p] counts what only processor p sees happen; Tree.Stats sums
	// it, and reads the operations off the network and the retirements off
	// the statuses.
	stats []procStats

	// ops tracks the in-flight operation per initiating leaf and records
	// each operation's delivered reply — shared with every other counter
	// implementation via counter.Ops, whose slots are per initiator too.
	ops *counter.Ops[struct{}, any]

	// checks is the lemma instrumentation: a global observer of the whole
	// run, not protocol state. Only the simulated Tree (New) turns it on;
	// NewMachine, which both backends run, leaves it nil.
	checks *checker
}

// heldMsg is a message that reached a waiting processor: it is served once
// the node's job lands, inside its own operation through tok.
type heldMsg struct {
	msg sim.Message
	tok sim.OpToken
}

// procStats is one processor's share of Stats.
type procStats struct{ forwarded, exhausted int64 }

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
		status:     make([]uint8, g.n+g.kPowK+1),
		held:       make([][]heldMsg, g.n+g.kPowK+1),
		leafParent: make([]sim.ProcID, g.n+1),
		leafLoad:   make([]int64, g.n+1),
		stats:      make([]procStats, g.n+1),
		ops:        counter.NewOps[struct{}, any](g.n),
	}
	for i := 0; i <= k; i++ {
		for j := 0; j < pow(k, i); j++ {
			id := g.nodeID(i, j)
			proc, pool := g.initialProc(i, j)
			nd := node{
				level:     i,
				pos:       j,
				poolStart: proc,
				poolSize:  pool,
			}
			if i > 0 {
				nd.parentProc, _ = g.initialProc(g.levelPos(g.parent(i, j)))
			}
			children := pr.children(id)
			for c := range children {
				if i < k {
					children[c], _ = g.initialProc(g.levelPos(g.childNode(i, j, c)))
				} else {
					children[c] = g.leafChild(j, c)
				}
			}
			pr.nodes[id] = nd
			pr.status[pr.slot(proc, id)] = holding
		}
	}
	for p := 1; p <= g.n; p++ {
		pr.leafParent[p] = pr.nodes[g.leafParentNode(sim.ProcID(p))].poolStart
	}
	if checks {
		pr.checks = newChecker(g, retireAge, pr.nodes)
	}
	return pr
}

// slot returns the index of processor p's status in node id's pool: the
// root's slots follow the n inner ones. A processor outside the node's pool
// is never sent anything for it, so asking for one is a protocol bug.
func (pr *proto) slot(p sim.ProcID, id int) int {
	nd := &pr.nodes[id]
	if p < nd.poolStart || int(p-nd.poolStart) >= nd.poolSize {
		panic(fmt.Sprintf("core: processor %v received a message for node %d, which it never serves (pool %v..%v)",
			p, id, nd.poolStart, nd.poolStart+sim.ProcID(nd.poolSize-1)))
	}
	if id == 0 {
		return pr.g.n + int(p)
	}
	return int(p)
}

// children returns node id's row of the childProc arena.
func (pr *proto) children(id int) []sim.ProcID {
	k := pr.g.k
	return pr.childProc[id*k : id*k+k]
}

// holder returns the processor serving node id: the first of its pool that
// has not retired. It reads every pool member's status, so only readouts at
// quiescence call it. A processor whose job was lost holds nothing yet and
// is returned all the same: the role is stranded there.
func (pr *proto) holder(id int) sim.ProcID {
	p := pr.nodes[id].poolStart
	for pr.status[pr.slot(p, id)] == retired {
		p++
	}
	return p
}

// initiate is the counter's operation start: an inc carries no request.
func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.initiateReq(nw, p, nil)
}

// initiateReq starts p's operation on req: leaf p sends "op from p" to its
// parent. The lemma checker's window for it opens here.
func (pr *proto) initiateReq(nw sim.Transport, p sim.ProcID, req any) {
	pr.ops.Begin(nw, p)
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
	var target int
	switch pl := msg.Payload.(type) {
	case incWord:
		target, _ = sim.Unpair(msg.Word)
	case incPayload:
		target = pl.Target
	case newIDPayload:
		if pl.Target == leafTarget {
			pr.leafLoad[msg.To]++
			pr.leafParent[msg.To] = max(pr.leafParent[msg.To], pl.NewProc)
			return
		}
		target = pl.Target
	case handoffParentPayload:
		target = pl.Node
	case handoffChildPayload:
		target = pl.Node
	case handoffJobPayload:
		pr.take(nw, msg.To, pl)
		return
	case valuePayload:
		pr.leafLoad[msg.To]++
		pr.ops.Finish(nw, msg.To, pl.Reply)
		return
	default:
		panic(fmt.Sprintf("core: unexpected payload %T", msg.Payload))
	}
	pr.serve(nw, msg, target)
}

// serve handles a message for node target at its receiver p, by p's status
// in the node's pool: the holder acts on it; a retired processor forwards
// it to its successor p+1 (one extra message per stale hop — the paper's
// constant-overhead handshake); a waiting one holds it until the node's job
// lands. The forward re-sends msg's payload as it arrived — a word kind
// with its word, a boxed payload in the box it came in — so it allocates
// nothing.
func (pr *proto) serve(nw sim.Transport, msg sim.Message, target int) {
	p := msg.To
	s := pr.slot(p, target)
	switch pr.status[s] {
	case retired:
		pr.stats[p].forwarded++
		nw.SendWord(p+1, msg.Payload, msg.Word)
		return
	case waiting:
		if pr.held == nil { // a clone's, made on first use (see CloneProtocol)
			pr.held = make([][]heldMsg, len(pr.status))
		}
		pr.held[s] = append(pr.held[s], heldMsg{msg: msg, tok: nw.Adopt()})
		return
	}
	switch pl := msg.Payload.(type) {
	case incWord:
		_, origin := sim.Unpair(msg.Word)
		pr.handleInc(nw, p, s, target, sim.ProcID(origin), nil)
	case incPayload:
		pr.handleInc(nw, p, s, target, pl.Origin, pl.Req)
	case newIDPayload:
		pr.handleNewID(nw, p, s, pl)
	case handoffParentPayload:
		nd := &pr.nodes[target]
		nd.parentProc = max(nd.parentProc, pl.ParentProc)
	case handoffChildPayload:
		kid := &pr.children(target)[pl.Idx]
		*kid = max(*kid, pl.ChildProc)
	}
}

// take hands node pl.Node to p when its job lands: p takes the node's table
// over, with the parent the job names, and serves in arrival order what it
// held for the node meanwhile. A job reaching a processor that is
// not waiting duplicates one already taken and is ignored, as is the root's
// job that carries no state (its twin hands the root over).
func (pr *proto) take(nw sim.Transport, p sim.ProcID, pl handoffJobPayload) {
	s := pr.slot(p, pl.Node)
	if pr.status[s] != waiting || (pl.Node == 0 && pl.State == nil) {
		return
	}
	pr.status[s] = holding
	nd := &pr.nodes[pl.Node]
	nd.parentProc = max(nd.parentProc, pl.ParentProc)
	if pl.Node == 0 {
		pr.root = pl.State
	}
	var held []heldMsg
	if pr.held != nil {
		held, pr.held[s] = pr.held[s], nil
	}
	for _, h := range held {
		at := &adopted{Transport: nw, tok: h.tok}
		pr.serve(at, h.msg, pl.Node)
		if at.tok.Valid() {
			nw.Release(at.tok)
		}
	}
}

// adopted is the transport a held message is served on. Its first send —
// the inc's next hop or reply, or a forward — continues the held operation
// (SendAs spends the token); any further send, a retirement the message
// triggered, belongs to the delivery that released it, as a cascade does.
type adopted struct {
	sim.Transport
	tok sim.OpToken
}

func (a *adopted) Send(to sim.ProcID, pl sim.Payload) { a.SendWord(to, pl, 0) }

func (a *adopted) SendWord(to sim.ProcID, pl sim.Payload, w int64) {
	if !a.tok.Valid() {
		a.Transport.SendWord(to, pl, w)
		return
	}
	a.Transport.SendAs(a.tok, to, pl, w)
	a.tok = sim.OpToken{}
}

// handleInc processes "op from p" at a node: the root applies the request
// to its state and answers the initiator directly; any other node forwards
// to its parent. Either way the node's age grows by two (one receive, one
// send) and the node retires if it has grown old.
func (pr *proto) handleInc(nw sim.Transport, p sim.ProcID, s, target int, origin sim.ProcID, req any) {
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
	pr.maybeRetire(nw, p, s, target)
}

// handleNewID updates the receiver's neighbor table after a neighbor's
// retirement; receiving the notification ages the node and may cascade its
// own retirement (paper: "It may of course happen that this increment
// triggers the retirement of parent and children nodes").
func (pr *proto) handleNewID(nw sim.Transport, p sim.ProcID, s int, pl newIDPayload) {
	nd := &pr.nodes[pl.Target]
	if nd.level > 0 && pr.g.parent(nd.level, nd.pos) == pl.Changed {
		nd.parentProc = max(nd.parentProc, pl.NewProc)
	} else {
		kid := &pr.children(pl.Target)[pr.childIndex(pl.Target, pl.Changed)]
		*kid = max(*kid, pl.NewProc)
	}
	nd.age++
	if pr.checks != nil {
		pr.checks.nodeMsgs(pl.Target, 1)
	}
	pr.maybeRetire(nw, p, s, pl.Target)
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

// maybeRetire retires p, whose status in node id's pool is slot s, from the
// node if its age reached the threshold. "After incrementing its age value
// a node decides locally whether it should retire."
func (pr *proto) maybeRetire(nw sim.Transport, p sim.ProcID, s, id int) {
	if pr.retireAge <= 0 {
		return
	}
	nd := &pr.nodes[id]
	if nd.age < pr.retireAge {
		return
	}
	if int(p-nd.poolStart)+1 >= nd.poolSize {
		// Pool exhausted: the node soldiers on with its current processor.
		// Within the paper's n operations this is unreachable at the default
		// threshold (Number of Retirements Lemma) and reachable only in
		// ablation configurations. Past them it is reached from the second
		// round of the repeated canonical workload on
		// (TestRepeatedCanonicalRounds), so long loaded runs take it
		// routinely.
		pr.stats[p].exhausted++
		if pr.checks != nil {
			pr.checks.poolExhausted(id)
		}
		nd.age = 0
		return
	}
	pr.retire(nw, p, s, id)
}

// retire hands node id from p to the next processor of its pool: "To retire
// the node updates its local values by setting age = 0 and id_new = id_old
// + 1; it then sends k+2 final messages [to the successor] ... the other
// k+1 messages inform the node's parent and children about id_new." p marks
// itself retired — from here on it forwards what reaches it for the node —
// and reads its table out before the job leaves: once the job lands the
// table is the successor's.
func (pr *proto) retire(nw sim.Transport, p sim.ProcID, s, id int) {
	nd := &pr.nodes[id]
	level, pos, start := nd.level, nd.pos, nd.poolStart
	parent := nd.parentProc
	var row [8]sim.ProcID // k <= 8
	children := row[:copy(row[:], pr.children(id))]
	succ := p + 1
	retirement := int(succ - start)
	if pr.checks != nil {
		pr.checks.retirement(id, level, p, succ, start, nd.poolSize)
	}
	nd.age = 0
	pr.status[s] = retired

	// k+2 handoff messages to the successor. For the root the parent slot
	// is replaced by the state-carrying message ("It additionally informs
	// the new processor of the counter value val and it saves the message
	// that would inform the parent").
	if level == 0 {
		st := pr.root
		pr.root = nil
		nw.Send(succ, handoffJobPayload{Node: id, Retirement: retirement})
		nw.Send(succ, handoffJobPayload{Node: id, Retirement: retirement, State: st})
	} else {
		nw.Send(succ, handoffJobPayload{Node: id, Retirement: retirement, ParentProc: parent})
		nw.Send(succ, handoffParentPayload{Node: id, ParentProc: parent})
	}
	for c, proc := range children {
		nw.Send(succ, handoffChildPayload{Node: id, Idx: c, ChildProc: proc})
	}

	// k+1 notifications: parent (unless root) and children learn id_new.
	if level > 0 {
		nw.Send(parent, newIDPayload{
			Target:  pr.g.parent(level, pos),
			Changed: id,
			NewProc: succ,
		})
	}
	if level < pr.g.k {
		for c, proc := range children {
			nw.Send(proc, newIDPayload{
				Target:  pr.g.childNode(level, pos, c),
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
// the tree's size or history. Held messages stay behind: each belongs to an
// operation still open, and a cloned network starts with none open (held
// messages outlive quiescence only when a job was lost). The clone, which
// runs on the simulator alone, makes its held table on first use.
func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	if pr.root != nil {
		cp.root = pr.root.CloneState()
	}
	cp.nodes = slices.Clone(pr.nodes)
	cp.childProc = slices.Clone(pr.childProc)
	cp.status = slices.Clone(pr.status)
	cp.held = nil
	cp.leafParent = slices.Clone(pr.leafParent)
	cp.leafLoad = slices.Clone(pr.leafLoad)
	cp.stats = slices.Clone(pr.stats)
	cp.ops = pr.ops.Clone()
	if pr.checks != nil {
		cp.checks = pr.checks.clone()
	}
	return &cp
}

// totals sums the processors' counts and their retired slots (each
// retirement retires one slot for good) into Stats, all but Ops; read it at
// quiescence.
func (pr *proto) totals() Stats {
	var sum Stats
	for _, st := range pr.stats {
		sum.Forwarded += st.forwarded
		sum.PoolExhausted += st.exhausted
	}
	for _, st := range pr.status {
		if st == retired {
			sum.Retirements++
		}
	}
	return sum
}
