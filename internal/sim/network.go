package sim

import (
	"errors"
	"fmt"
	"math"

	"distcount/internal/rng"
)

// eventBudget is the number of events a network delivers before Run fails
// with ErrEventBudget: far past any experiment, so reaching it means a
// runaway protocol.
const eventBudget = 500_000_000

// Errors returned by Network methods.
var (
	// ErrEventBudget is returned by Run when the event budget is exhausted;
	// it indicates a runaway protocol (a livelock or an unbounded retirement
	// cascade).
	ErrEventBudget = errors.New("sim: event budget exhausted")
	// ErrNotQuiescent is returned by Clone when the network still has
	// queued events or is inside a delivery.
	ErrNotQuiescent = errors.New("sim: network is not quiescent")
	// ErrNotCloneable is returned by Clone when the protocol does not
	// implement CloneableProtocol.
	ErrNotCloneable = errors.New("sim: protocol does not implement CloneableProtocol")
)

// ctx is the execution context while a Deliver or start callback runs. st
// is op's record (nil for a detached event): the delivered event holds one
// of op's pending units until the callback returns, so the record stays live
// for the whole callback, and sends, timers and Adopt charge it without a
// second table lookup.
type ctx struct {
	op   OpID
	node int32 // DAG node the callback acts at (see Delivery)
	proc ProcID
	st   *opStats
}

// Network is the simulated asynchronous message-passing system.
// It is not safe for concurrent use.
type Network struct {
	n       int
	proto   Protocol
	latency Latency
	// unitLatency caches latency.(UnitLatency), fixed at construction: the
	// default model returns 1 and draws no randomness, so pushSend skips the
	// interface call and the Message it would have to build for it.
	unitLatency bool
	// bookAtSend, fixed at construction, marks a network whose messages reach
	// each receiver in send order: unit latency and no crash or churn window
	// to hold one back. pushSend then books the service slot itself, so a
	// message to a busy receiver is queued once, at its slot.
	bookAtSend bool
	rand       *rng.Source

	now   int64
	seq   uint64
	queue eventQueue

	sent, recv []int64 // indexed by ProcID; slot 0 unused
	msgTotal   int64
	bitsTotal  int64
	maxMsgBits int
	events     int64
	maxEvents  int64

	// servers is the receiver-side service model, indexed by ProcID (slot 0
	// unused).
	servers []server

	nextOp    OpID
	ops       opTable
	onOpDone  func(OpDone)
	onDeliver func(Delivery)
	// doneQ holds operations completed by Release during a delivery that
	// belonged to a different operation; drained after each Step.
	doneQ []OpDone

	// faults, when non-nil, is the installed fault-injection plan (see
	// WithFaults and faults.go). All fault decisions run through it.
	faults *FaultInjector

	cur        ctx
	inCallback bool
}

// server is one processor's receiver-side service state. cost is its
// processing cost per network message in ticks (0 = messages are processed
// instantly, the paper's pure latency model; a heterogeneous profile models
// mixed hardware, where a slow processor saturates before its peers); next
// is the first tick its next message may be served at, the end of the last
// slot booked.
type server struct {
	cost, next int64
}

// reserve books the service slot of a message arriving at a: it is served
// at max(a, next), after every message booked before it, and holds the
// processor for cost ticks. Booked in arrival order this is a FIFO queue
// (Lindley's recursion). It is the simulator's one service-slot rule, run
// where a message's arrival order at its receiver is known: at send when
// the network books at send (bookAtSend), otherwise when the message's
// arrival event pops.
func (sv *server) reserve(a int64) int64 {
	slot := max(a, sv.next)
	sv.next = slot + sv.cost
	return slot
}

// Option configures a Network.
type Option func(*Network)

// WithSeed sets the seed of the network's random source (default 1).
func WithSeed(seed uint64) Option {
	return func(nw *Network) { nw.rand = rng.New(seed) }
}

// WithLatency sets the latency model (default UnitLatency).
func WithLatency(l Latency) Option {
	return func(nw *Network) { nw.latency = l }
}

// WithServiceTime gives every processor a finite processing rate: a
// processor handles at most one incoming network message per s ticks, and
// messages reaching a busy processor wait at the receiver until it frees
// up, served FIFO in arrival order (ties by send order, so deterministic).
// Under unit latency with no crash or churn window arrival order is send
// order and the slot is booked when the message is sent; otherwise it is
// booked when the message arrives. Operation starts and local timers are
// exempt — the cost models message handling, the quantity the paper counts.
//
// The default (0) is the paper's pure latency model, in which a processor
// can absorb unboundedly many messages per tick and therefore never
// saturates no matter how large its load m_b grows. With s > 0 the
// lower-bound story becomes observable in the time domain: a processor
// receiving messages for a fraction f of all operations caps system
// throughput at 1/(f·s) operations per tick, so the bottleneck's message
// load sets the saturation knee the open-loop engine measures.
func WithServiceTime(s int64) Option {
	return WithServiceProfile(func(ProcID) int64 { return s })
}

// WithFaults installs a deterministic, seeded fault-injection plan: message
// loss and duplication decided at the Send boundary, processor crash/recover
// windows and membership churn enforced at delivery, local timers cancelled
// at crashed processors. The plan draws from its own random source, so a
// plan with no probabilistic rules leaves the fault-free event schedule
// byte-identical. Operations that lose an event to a fault wedge (never
// complete) instead of completing incorrectly; the engine reports them. A
// later WithFaults replaces an earlier one; an empty plan removes it.
func WithFaults(plan FaultPlan) Option {
	return func(nw *Network) {
		if plan.Empty() {
			nw.faults = nil
			return
		}
		nw.faults = NewFaultInjector(nw.n, plan)
	}
}

// WithServiceProfile is WithServiceTime with a per-processor cost:
// processor p handles at most one incoming network message per cost(p)
// ticks (cost 0 = that processor processes instantly). The cost function is
// evaluated once per processor at construction time, so it must be
// deterministic; because it receives the processor id it composes with
// algorithms that round the network size up. Heterogeneous profiles model
// mixed hardware: the saturation knee then belongs to whichever processor's
// message load meets its processing cost first, which is generally not the
// homogeneous bottleneck. A later WithServiceProfile or WithServiceTime
// option replaces an earlier one.
func WithServiceProfile(cost func(p ProcID) int64) Option {
	return func(nw *Network) {
		for p := 1; p <= nw.n; p++ {
			c := cost(ProcID(p))
			if c < 0 {
				panic(fmt.Sprintf("sim: negative service time %d for processor %d", c, p))
			}
			nw.servers[p].cost = c
		}
	}
}

// New creates a network of n processors running the given protocol.
func New(n int, proto Protocol, opts ...Option) *Network {
	if n < 1 {
		panic(fmt.Sprintf("sim: network size %d < 1", n))
	}
	nw := &Network{
		n:         n,
		proto:     proto,
		latency:   UnitLatency{},
		rand:      rng.New(1),
		sent:      make([]int64, n+1),
		recv:      make([]int64, n+1),
		servers:   make([]server, n+1),
		maxEvents: eventBudget,
	}
	for _, opt := range opts {
		opt(nw)
	}
	_, nw.unitLatency = nw.latency.(UnitLatency)
	nw.bookAtSend = nw.unitLatency && (nw.faults == nil || !nw.faults.plan.hasDowntime())
	nw.queue.carve()
	return nw
}

// N returns the number of processors.
func (nw *Network) N() int { return nw.n }

// Now returns the current simulated time.
func (nw *Network) Now() int64 { return nw.now }

// Rand returns the network's random source (for protocol-level choices that
// must stay reproducible and cloneable).
func (nw *Network) Rand() *rng.Source { return nw.rand }

// Reseed replaces the network's random source, changing all future random
// latency draws. The lower-bound adversary uses it to explore different
// message schedules for the same operation ("for each operation in the
// sequence there may be more than one possible process"): probing a
// candidate on clones reseeded with different values and replaying the
// chosen seed on the real network yields identical executions.
func (nw *Network) Reseed(seed uint64) { nw.rand = rng.New(seed) }

// Protocol returns the protocol instance driving this network.
func (nw *Network) Protocol() Protocol { return nw.proto }

// MessagesTotal returns the total number of network messages sent so far.
func (nw *Network) MessagesTotal() int64 { return nw.msgTotal }

// BitsTotal returns the total payload bits sent so far, counting only
// payloads that implement BitSized.
func (nw *Network) BitsTotal() int64 { return nw.bitsTotal }

// MaxMessageBits returns the largest BitSized payload sent so far (0 if
// the protocol does not size its payloads). The paper's tree counter keeps
// this at O(log n).
func (nw *Network) MaxMessageBits() int { return nw.maxMsgBits }

// Sent returns the per-processor sent counters (index = ProcID, slot 0
// unused). The slice is the network's own, so reading it allocates nothing
// — the engine samples it after completions — and it keeps counting: do not
// modify it, and copy it to keep a snapshot.
func (nw *Network) Sent() []int64 { return nw.sent }

// Recv returns the per-processor received counters, the network's own like
// Sent's.
func (nw *Network) Recv() []int64 { return nw.recv }

// Load returns the message load m_p = sent + received of processor p.
func (nw *Network) Load(p ProcID) int64 {
	nw.checkProc(p, "Load")
	return nw.sent[p] + nw.recv[p]
}

// Loads returns all message loads m_p (index = ProcID, slot 0 unused).
func (nw *Network) Loads() []int64 {
	out := make([]int64, nw.n+1)
	for p := 1; p <= nw.n; p++ {
		out[p] = nw.sent[p] + nw.recv[p]
	}
	return out
}

// ServiceTimeOf returns the per-message processing cost of processor p, as
// configured by WithServiceTime or WithServiceProfile (0 = instantaneous).
func (nw *Network) ServiceTimeOf(p ProcID) int64 {
	nw.checkProc(p, "ServiceTimeOf")
	return nw.servers[p].cost
}

// NextAt returns the simulated time of the earliest queued event; ok is
// false when the queue is empty. The open-loop workload engine peeks it to
// interleave request admission with event delivery in timestamp order.
func (nw *Network) NextAt() (int64, bool) {
	return nw.queue.peekAt()
}

// FaultsActive reports whether a fault plan is installed.
func (nw *Network) FaultsActive() bool { return nw.faults != nil }

// FaultStats returns the fault events fired so far (the zero value when no
// plan is installed).
func (nw *Network) FaultStats() FaultStats {
	if nw.faults == nil {
		return FaultStats{}
	}
	return nw.faults.Stats()
}

// CurrentOp returns the id of the operation the currently executing delivery
// or start callback belongs to, and 0 outside a callback or inside a
// detached maintenance event (AfterDetached). Protocols use it to key
// per-operation state — e.g. recording which operation a delivered counter
// value belongs to — without threading the id through every payload.
func (nw *Network) CurrentOp() OpID {
	if !nw.inCallback {
		return 0
	}
	return nw.cur.op
}

// OnOpDone installs a completion handler invoked whenever the last queued
// event of an operation has been delivered — i.e. the operation's "process"
// has run to completion even though the network as a whole may still be
// busy with other operations. It receives the operation's OpDone record,
// the shape rt's completions take too; the simulator has freed its own
// record by then, so the OpDone is the only trace a finished operation
// leaves. An operation that lost an event to an injected fault never
// completes and fires nothing. The handler runs outside any delivery
// context, so it may call ScheduleOp (the closed-loop workload engine admits
// its next request from here) but not Send. Passing nil removes the handler.
func (nw *Network) OnOpDone(fn func(OpDone)) { nw.onOpDone = fn }

// OnDeliver installs the hook that receives, one Delivery per node, the
// communication DAG of each operation started while a hook is installed
// (internal/trace builds DAGs from them). A lost message makes no node, a
// duplicated one two. nil removes the hook; without one a delivery pays a
// nil check.
func (nw *Network) OnDeliver(fn func(Delivery)) { nw.onDeliver = fn }

// ForgetOp does nothing: the simulator frees an operation's record itself,
// with the operation's last pending event (see release). It is kept only
// for the frozen benchmark harness under bench/, which still calls it, and
// goes when that harness next changes.
func (nw *Network) ForgetOp(OpID) {}

// Ops returns the number of operations started so far.
func (nw *Network) Ops() int { return int(nw.nextOp) }

// Network implements the Transport surface protocols run against.
var _ Transport = (*Network)(nil)

// StartOp opens a new operation initiated by p: the start callback runs at
// the current simulated time in p's execution context and typically sends
// the operation's first message(s). It returns the operation id.
func (nw *Network) StartOp(p ProcID, start func(nw Transport, p ProcID)) OpID {
	return nw.ScheduleOp(nw.now, p, start)
}

// ScheduleOp is StartOp at an absolute future time; it is the injection
// mechanism for the concurrent experiments.
func (nw *Network) ScheduleOp(at int64, p ProcID, start func(nw Transport, p ProcID)) OpID {
	nw.checkProc(p, "ScheduleOp")
	if at < nw.now {
		panic(fmt.Sprintf("sim: ScheduleOp at %d is in the past (now %d)", at, nw.now))
	}
	nw.nextOp++
	id := nw.nextOp
	st := nw.ops.alloc(id, p, at)
	if nw.onDeliver != nil {
		st.nodes = 1 // the source
	}
	nw.ops.put(id, st)
	nw.seq++
	e := nw.queue.slot(at, nw.seq)
	e.payload, e.word, e.op = startFn(start), 0, id
	e.from, e.to, e.parent = int32(p), int32(p), 0
	e.local, e.reserved = false, false
	return id
}

// startFn is an operation start's callback. It rides in its event's payload
// slot: a func value is pointer-shaped, so boxing it allocates nothing, and
// Step tells a start from a delivery by this type.
type startFn func(nw Transport, p ProcID)

func (startFn) Kind() string { return "op-start" }

// isStart reports whether an event's payload is an operation start.
func isStart(pl Payload) bool {
	_, ok := pl.(startFn)
	return ok
}

// Send transmits a message from the currently executing processor to another
// processor. It must be called from within a Deliver or operation start
// callback. The message is attributed to the current operation. It is
// SendWord with a zero word.
func (nw *Network) Send(to ProcID, pl Payload) { nw.SendWord(to, pl, 0) }

// SendWord is Send with the inline word w, delivered as Message.Word: a
// message kind whose data fits in 64 bits passes a zero-size kind value and
// its data in w, and the send allocates nothing.
func (nw *Network) SendWord(to ProcID, pl Payload, w int64) {
	if !nw.inCallback {
		panic("sim: Send called outside a delivery context")
	}
	nw.checkProc(to, "Send")
	nw.enqueueSend(to, pl, w, nw.cur.op, nw.cur.st, nw.cur.node, true)
}

// accountSend charges one physical transmission to the sender's load
// counters and, when the operation is tracked, to the operation: message
// count and — when the queued delivery belongs to the operation — one more
// pending event. It is the single accounting body shared by the first copy
// of a send and a fault-injected duplicate, so the two cannot drift (a
// duplicate is a genuine second transmission: full load accounting and its
// own pending delivery).
func (nw *Network) accountSend(from ProcID, pl Payload, w int64, st *opStats, countPending bool) {
	nw.sent[from]++
	nw.msgTotal++
	if sized, ok := pl.(BitSized); ok {
		bits := sized.Bits(w)
		nw.bitsTotal += int64(bits)
		if bits > nw.maxMsgBits {
			nw.maxMsgBits = bits
		}
	}
	if st != nil {
		st.Messages++
		if countPending {
			st.pending++
		}
	}
}

// pushSend enqueues one transmission with a fresh latency draw. Under the
// default UnitLatency the draw is the constant 1 and consumes no randomness,
// so the model is not consulted; every other model sees the full message.
// When the network books at send, a message to a serving receiver is queued
// at its service slot, already reserved. The event is written straight into
// its queue slot.
func (nw *Network) pushSend(from, to ProcID, pl Payload, w int64, op OpID, parent int32) {
	delay := int64(1)
	if !nw.unitLatency {
		delay = nw.latency.Delay(Message{From: from, To: to, Payload: pl, Word: w}, nw.rand)
	}
	at, reserved := nw.now+delay, false
	if sv := &nw.servers[to]; nw.bookAtSend && sv.cost > 0 {
		at, reserved = sv.reserve(at), true
	}
	nw.seq++
	e := nw.queue.slot(at, nw.seq)
	e.payload, e.word, e.op = pl, w, op
	e.from, e.to, e.parent = int32(from), int32(to), parent
	e.local, e.reserved = false, reserved
}

// enqueueSend is the shared body of SendWord and SendAs: load accounting,
// per-op statistics, and the enqueue, attributed to the given operation, its
// record st (nil when untracked) and DAG node. countPending adds the queued
// event to the operation's pending count (Send); SendAs instead converts an
// existing hold.
func (nw *Network) enqueueSend(to ProcID, pl Payload, w int64, op OpID, st *opStats, parent int32, countPending bool) {
	from := nw.cur.proc
	nw.accountSend(from, pl, w, st, countPending)
	var dup bool
	if nw.faults != nil {
		var drop bool
		drop, dup = nw.faults.SendFate(from)
		if drop {
			// The sender paid for the message, but it is destroyed in flight:
			// no event is enqueued, and the operation is lost.
			nw.release(st, true)
			return
		}
	}
	nw.pushSend(from, to, pl, w, op, parent)
	if dup {
		// A duplicated message repeats the whole accounting and gets its own
		// latency draw. Duplicate copies are not fed back through SendFate.
		nw.accountSend(from, pl, w, st, true)
		nw.pushSend(from, to, pl, w, op, parent)
	}
}

// OpToken is a held continuation of an operation, created with Adopt: the
// right to attribute one future message to that operation from another
// operation's delivery context. The zero value is invalid.
type OpToken struct {
	op   OpID
	node int32
}

// Valid reports whether the token holds an operation.
func (t OpToken) Valid() bool { return t.op != 0 }

// Op returns the operation the token continues (0 for an invalid token).
func (t OpToken) Op() OpID { return t.op }

// Node returns the DAG node the token was adopted at (see Delivery).
func (t OpToken) Node() int { return int(t.node) }

// TokenFor builds a token for op adopted at DAG node node, for alternative
// Transport implementations (rt keeps its own pending accounting); inside
// the simulator tokens come from Adopt, so the hold is counted.
func TokenFor(op OpID, node int) OpToken { return OpToken{op: op, node: int32(node)} }

// Adopt captures the current operation as a continuation token and keeps
// the operation open (pending) until the token is spent with SendAs or
// discarded with Release. Protocols whose replies ride other operations'
// messages — a combining tree merging a request into an open batch, a
// diffracting prism parking a token for a partner — use it so that the
// merged operation's value delivery is attributed to the merged operation
// itself: its completion (OnOpDone), message count, and communication
// DAG then reflect the logical operation rather than the physical carrier.
// Must be called from within a delivery or start callback.
func (nw *Network) Adopt() OpToken {
	if !nw.inCallback {
		panic("sim: Adopt called outside a delivery context")
	}
	if st := nw.cur.st; st != nil {
		st.pending++
	}
	return OpToken{op: nw.cur.op, node: nw.cur.node}
}

// SendAs is SendWord attributed to the adopted operation instead of the
// current one: the message is physically sent by the currently executing
// processor, but belongs — for completion tracking, per-op stats, and DAG
// purposes — to the token's operation, whose continuation it spends. Each
// token must be spent (SendAs) or discarded (Release) exactly once.
func (nw *Network) SendAs(tok OpToken, to ProcID, pl Payload, w int64) {
	if !nw.inCallback {
		panic("sim: SendAs called outside a delivery context")
	}
	if !tok.Valid() {
		panic("sim: SendAs with an invalid token")
	}
	nw.checkProc(to, "SendAs")
	// The hold converts into the queued event: pending is unchanged. The
	// token's operation is generally not the delivering one, so its record
	// is looked up, not taken from the context.
	nw.enqueueSend(to, pl, w, tok.op, nw.ops.get(tok.op), tok.node, false)
}

// Release discards an adopted continuation without sending, for protocols
// whose held operation turns out to continue (or end) by other means. If
// the release completes the operation, the OnOpDone handler fires after
// the current delivery finishes.
func (nw *Network) Release(tok OpToken) {
	if !nw.inCallback {
		panic("sim: Release called outside a delivery context")
	}
	if !tok.Valid() {
		panic("sim: Release of an invalid token")
	}
	if st := nw.ops.get(tok.op); st != nil {
		st.End = max(st.End, nw.now)
		nw.release(st, false)
	}
}

// release retires one pending unit of st's operation: a delivered event, a
// Release, or — lost set — an event destroyed by an injected fault. It is
// the one place a record's lifetime is decided: with the last unit the
// record is freed, and an operation that lost nothing completes, its
// OnOpDone firing at once outside a delivery, or after the current delivery
// inside one. st may be nil (an event of no operation).
func (nw *Network) release(st *opStats, lost bool) {
	if st == nil {
		return
	}
	if lost {
		st.lost = true
	}
	if st.pending--; st.pending == 0 {
		nw.finish(st)
	}
}

// finish frees the record of an operation whose last unit retired and
// reports its completion unless it was lost (release's slow path, kept
// apart so the per-event path inlines).
func (nw *Network) finish(st *opStats) {
	d, done := st.OpDone, !st.lost && nw.onOpDone != nil
	nw.ops.drop(st)
	if !done {
		return
	}
	if nw.inCallback {
		nw.doneQ = append(nw.doneQ, d)
		return
	}
	nw.onOpDone(d)
}

// After schedules a local wakeup for the currently executing processor after
// the given delay. It is AfterWord with a zero word.
func (nw *Network) After(delay int64, pl Payload) { nw.AfterWord(delay, pl, 0) }

// AfterWord is After with the inline word w, delivered as Message.Word. The
// wakeup is delivered like a message with Local set but is not a network
// message: it is excluded from all load accounting and traces. Protocols use
// it for timing windows (e.g. combining intervals).
func (nw *Network) AfterWord(delay int64, pl Payload, w int64) {
	if !nw.inCallback {
		panic("sim: After called outside a delivery context")
	}
	if delay < 0 {
		panic(fmt.Sprintf("sim: After called with negative delay %d", delay))
	}
	if st := nw.cur.st; st != nil {
		st.pending++
	}
	p := int32(nw.cur.proc)
	nw.seq++
	e := nw.queue.slot(nw.now+delay, nw.seq)
	e.payload, e.word, e.op = pl, w, nw.cur.op
	e.from, e.to, e.parent = p, p, nw.cur.node
	e.local, e.reserved = true, false
}

// AfterDetached is AfterWord for a maintenance wakeup that belongs to no
// operation: it does not keep the current operation pending, and work done
// when it fires is attributed to no op (sends from its delivery must
// therefore use SendAs with a previously adopted token, or be genuine
// maintenance traffic). Diffracting prisms use it for their expiry timers:
// the parked operation is held by Adopt, so a stale timer outliving a
// diffraction must not also pin the operation open.
func (nw *Network) AfterDetached(delay int64, pl Payload, w int64) {
	if !nw.inCallback {
		panic("sim: AfterDetached called outside a delivery context")
	}
	if delay < 0 {
		panic(fmt.Sprintf("sim: AfterDetached called with negative delay %d", delay))
	}
	p := int32(nw.cur.proc)
	nw.seq++
	e := nw.queue.slot(nw.now+delay, nw.seq)
	e.payload, e.word, e.op = pl, w, 0
	e.from, e.to, e.parent = p, p, 0
	e.local, e.reserved = true, false
}

// requeue enqueues the popped event e again at (at, seq) with the given
// reserved mark: the service-slot deferral and the Freeze re-entry. It copies
// e field by field into its new slot, which may be e's own: slot writes
// nothing there but at and seq, so the copy stays correct when it is.
func (nw *Network) requeue(e *event, at int64, seq uint64, reserved bool) {
	s := nw.queue.slot(at, seq)
	s.payload, s.word, s.op = e.payload, e.word, e.op
	s.from, s.to, s.parent = e.from, e.to, e.parent
	s.local, s.reserved = e.local, reserved
}

// Pending returns the number of queued events.
func (nw *Network) Pending() int { return nw.queue.len() }

// Step delivers the single next event. It returns false when the queue is
// empty.
func (nw *Network) Step() (bool, error) {
	e := nw.queue.pop(math.MaxInt64)
	if e == nil {
		return false, nil
	}
	return true, nw.deliver(e)
}

// RunUntil delivers, in (time, sequence) order, every queued event due
// before until — every event, the ones its deliveries queue included, when
// until is negative — and leaves the earliest remaining event, if any, at
// until or later: an event exactly at until stays queued. It is the
// network's one delivery loop, which finds each next event once: OnOpDone
// handlers run between deliveries and whatever they schedule before until is
// delivered in the same call. It returns false only when nothing was queued.
func (nw *Network) RunUntil(until int64) (bool, error) {
	if nw.queue.len() == 0 {
		return false, nil
	}
	limit := until
	if limit < 0 {
		limit = math.MaxInt64
	}
	for e := nw.queue.pop(limit); e != nil; e = nw.queue.pop(limit) {
		if err := nw.deliver(e); err != nil {
			return true, err
		}
	}
	return true, nil
}

// deliver delivers the popped event e: the one body of Step and RunUntil.
//
// deliver defers nothing: it clears the callback mark itself once the
// callback returns. A callback that panics therefore leaves the network
// inside a delivery for good — CurrentOp keeps answering and Clone refuses it
// with ErrNotQuiescent — so a network whose protocol panicked is not
// reusable.
func (nw *Network) deliver(e *event) error {
	nw.events++
	if nw.events > nw.maxEvents {
		return fmt.Errorf("%w (%d events)", ErrEventBudget, nw.maxEvents)
	}
	// Crash windows are enforced at delivery time: an event addressed to a
	// down processor is drained, deferred to recovery (Freeze), or — for a
	// local timer — cancelled. The check precedes service-slot reservation
	// so a crashed processor's destroyed backlog does not consume slots.
	if nw.faults != nil && nw.faultIntercept(e) {
		return nil
	}
	// Receiver-side service booked at arrival (a network that does not
	// book at send; Freeze re-entries among them): the message reserves its
	// receiver's slot when it pops, i.e. in arrival order (at, seq), and a
	// message that must wait re-enters the queue at its slot, marked
	// reserved so it is never deferred again (an unreserved event popping
	// at the same tick as an outstanding slot defers rather than stealing
	// it). A backlog of k messages thus costs O(k) extra queue operations
	// and drains FIFO with no starvation.
	to := ProcID(e.to)
	if !e.local && !e.reserved {
		if sv := &nw.servers[to]; sv.cost > 0 && !isStart(e.payload) {
			if slot := sv.reserve(e.at); slot > e.at {
				nw.requeue(e, slot, e.seq, true)
				return nil
			}
		}
	}
	// e points into the queue, and any enqueue — from a callback or the
	// OnDeliver hook — may reuse its slot: the delivery is read out of it
	// here, before anything runs.
	at, op, parent := e.at, e.op, e.parent
	from, pl, w, local := ProcID(e.from), e.payload, e.word, e.local
	nw.now = at

	st := nw.ops.get(op)
	if st != nil && at > st.End {
		st.End = at
	}

	nw.cur = ctx{op: op, proc: to, st: st}
	nw.inCallback = true
	if start, ok := pl.(startFn); ok {
		// Operation initiation: the DAG's source, node 0.
		if st != nil && st.nodes > 0 && nw.onDeliver != nil {
			nw.onDeliver(Delivery{Op: op, Proc: to, Parent: -1})
		}
		start(nw, to)
	} else {
		if !local {
			nw.recv[to]++
			if st != nil && st.nodes > 0 && nw.onDeliver != nil {
				nw.cur.node = int32(st.nodes)
				st.nodes++
				nw.onDeliver(Delivery{Op: op, Proc: to, Node: int(nw.cur.node), Parent: int(parent)})
			}
		} else {
			// Local wakeups keep the DAG node of their scheduler, so that
			// messages sent from a timer attach where it was set.
			nw.cur.node = parent
		}
		nw.proto.Deliver(nw, Message{From: from, To: to, Payload: pl, Word: w, Local: local})
	}
	nw.inCallback = false

	// The delivered event no longer belongs to the operation; if it was the
	// last one, the operation is complete. The handler runs outside the
	// delivery context so it may schedule follow-up operations.
	nw.release(st, false)
	// Operations completed by Release during the delivery fire now, also
	// outside the delivery context.
	for len(nw.doneQ) > 0 {
		d := nw.doneQ[0]
		nw.doneQ = nw.doneQ[1:]
		if nw.onOpDone != nil {
			nw.onOpDone(d)
		}
	}
	return nil
}

// faultIntercept applies the fault plan's crash/churn windows to a popped
// event. It returns true when the event was consumed (drained, cancelled,
// or re-enqueued for after recovery) and must not be delivered.
func (nw *Network) faultIntercept(e *event) bool {
	down, until, forever := nw.faults.DownAt(ProcID(e.to), e.at)
	if !down {
		return false
	}
	if e.local {
		// A crash loses soft state: local timers at a down processor are
		// cancelled outright, even under Freeze.
		nw.faults.NoteTimerCancelled()
		nw.release(nw.ops.get(e.op), true)
		return true
	}
	if nw.faults.Plan().Freeze && !forever {
		// Frozen mailbox: the delivery waits out the downtime and re-enters
		// the queue at recovery, where it competes for service slots again.
		nw.faults.NoteCrashDeferred()
		nw.seq++
		nw.requeue(e, until, nw.seq, false)
		return true
	}
	// Drained mailbox: the delivery is destroyed and its operation is lost.
	nw.faults.NoteCrashDropped()
	nw.release(nw.ops.get(e.op), true)
	return true
}

// Run delivers events until the network is quiescent (empty queue): it is
// RunUntil with no limit. In the paper's sequential model this is called
// after each StartOp so that "the preceding inc operation is finished before
// the next one starts".
func (nw *Network) Run() error {
	_, err := nw.RunUntil(-1)
	return err
}

// Clone returns an independent deep copy of the network at quiescence:
// per-processor loads, time, randomness and protocol state are duplicated;
// operation history is not carried over (the clone starts with an empty
// operation log but keeps the operation id counter, so op ids remain
// globally unique across original and clone). The handlers installed with
// OnOpDone and OnDeliver are not carried over either. A network whose
// protocol panicked inside a delivery is never quiescent again (see Step).
func (nw *Network) Clone() (*Network, error) {
	if nw.inCallback || nw.queue.len() != 0 {
		return nil, ErrNotQuiescent
	}
	cp, ok := nw.proto.(CloneableProtocol)
	if !ok {
		return nil, ErrNotCloneable
	}
	out := &Network{
		n:           nw.n,
		proto:       cp.CloneProtocol(),
		latency:     nw.latency,
		unitLatency: nw.unitLatency,
		bookAtSend:  nw.bookAtSend,
		rand:        nw.rand.Clone(),
		now:         nw.now,
		seq:         nw.seq,
		queue:       eventQueue{base: nw.queue.base},
		sent:        make([]int64, len(nw.sent)),
		recv:        make([]int64, len(nw.recv)),
		msgTotal:    nw.msgTotal,
		bitsTotal:   nw.bitsTotal,
		maxMsgBits:  nw.maxMsgBits,
		events:      nw.events,
		maxEvents:   nw.maxEvents,
		servers:     append([]server(nil), nw.servers...),
		nextOp:      nw.nextOp,
		ops:         opTable{floor: nw.nextOp, top: nw.nextOp},
		faults:      nw.faults.Clone(),
	}
	copy(out.sent, nw.sent)
	copy(out.recv, nw.recv)
	return out, nil
}

func (nw *Network) checkProc(p ProcID, where string) {
	if p < 1 || int(p) > nw.n {
		panic(fmt.Sprintf("sim: %s: processor %d out of range [1,%d]", where, p, nw.n))
	}
}
