// Package rt is the real-hardware execution backend: it runs the same
// counter protocols as the discrete-event simulator (internal/sim), but on
// real cores — processors are mailboxes drained by a pool of worker
// goroutines, one per core, and time is measured by the wall clock.
//
// The protocol code is shared, not ported. Every algorithm is described by
// a counter.Machine (its sim.Protocol, initiation callback and value
// reader); the simulator wraps the machine in a single-threaded event queue
// with simulated time (counter.OnSim), while this package wraps the
// identical machine in mutex-guarded mailboxes and a worker pool. Both are
// a counter.Async: a caller starts operations and reads each value back by
// operation id with OpValue, whichever backend runs. The sim.Transport interface is the
// seam: a delivery callback cannot tell which backend it runs on, so consistency
// properties verified on simulated interleavings (internal/verify) can be
// re-checked on real ones — under the race detector — and the simulator's
// predicted saturation knees can be compared against knees measured in
// operations per second on actual hardware (loadgen -study simvsreal).
//
// # Execution model
//
// Each processor p in 1..n owns one unbounded FIFO mailbox. Send appends to
// the destination's mailbox; a processor whose mailbox turns non-empty joins
// the runtime's ready list, a FIFO drained by min(n, GOMAXPROCS) worker
// goroutines. A worker pops a processor, swaps its whole mailbox out and
// delivers the batch in arrival order by calling the protocol's Deliver with
// that processor's Transport view, whose CurrentOp is the operation the
// message is attributed to; a processor that received more mail meanwhile
// goes back to the tail of the list. A processor is on the list or inside an
// executor at most once, so its handlers never run concurrently with each
// other and its protocol state needs no lock. A message to an idle processor
// thus costs two appends, and parks or wakes a goroutine only when an
// executor was idle — not once per hop, as a goroutine per processor would.
// Mailboxes are unbounded deliberately: the protocols exchange cyclic
// request/reply patterns, and a bounded channel could deadlock two
// processors sending to each other's full queues. The paper's model
// (Section 2) promises unbounded local memory and finite but unbounded
// message delay, which is exactly what an unbounded mailbox plus a
// work-conserving pool provides.
//
// A runtime that delivers its completions into a Sink makes the sink's
// driving goroutine its last worker: while it has more than one worker, one
// retires for the sink's life, and Sink.Await runs ready processors — with
// the same claim, one batch at a time — whenever it has no completion to
// hand over, instead of parking or spinning toward an arrival. A processor
// that becomes ready while no worker is parked posts the sink's wake token,
// so a parked driver is an idle executor like a parked worker. So at most
// GOMAXPROCS goroutines run protocol code, and a completion is usually
// handled by the goroutine that produced it.
//
// Operation accounting mirrors the simulator event for event: an operation
// is open while it has pending attributed work (its initiation callback,
// in-flight attributed messages and timers, and Adopt holds); when the
// count reaches zero the operation is complete and the OnOpDone callback
// fires. The per-message service cost of sim.WithServiceTime is emulated by
// busy-spinning the executor that holds the receiving processor for cost x
// tick per network message, which reproduces the serial-server bottleneck —
// the paper's hot-spot — on real cores.
//
// Machines flagged Serial (token ring, the paper's tree) have handlers
// that touch state owned by other processors; the simulator's single thread
// hides that, so this backend serializes all their protocol callbacks under
// one mutex. Message passing and service spinning still run concurrently.
//
// # Time
//
// Transport.Now returns wall-clock nanoseconds since the runtime started.
// Protocol-visible delays (After, AfterDetached, service costs) are written
// in simulated ticks; the runtime scales them by the configured tick
// duration (WithTick, default 1 microsecond — so a tick-1 service cost caps
// a processor near 10^6 messages/second, the scale of SNIPPETS.md's
// million-increments-per-second shared counters). Timers never fire early and
// are delivered within a few microseconds of their deadline: a merge window
// of w ticks opens for w x tick plus one mailbox hop. They are kept in one
// deadline heap per runtime, served by a clock goroutine (clock.go) that
// blocks while no timer is pending and yield-spins — one core's worth of
// runtime.Gosched calls — only while a deadline is less than spinHorizon
// away; OS timers alone would round every sub-millisecond wait up to about a
// millisecond.
package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// DefaultTick is the wall-clock duration of one simulated tick.
const DefaultTick = time.Microsecond

// Option configures a Runtime.
type Option func(*Runtime)

// WithTick sets the wall-clock duration of one simulated tick, the unit of
// protocol delays (After) and emulated service costs. Non-positive values
// keep the default.
func WithTick(d time.Duration) Option {
	return func(r *Runtime) {
		if d > 0 {
			r.tick = d
		}
	}
}

// WithServiceProfile sets a per-processor service cost in ticks, the rt
// analog of sim.WithServiceProfile: every network message occupies its
// receiving goroutine for cost x tick of wall time (busy-spun, so the core
// is genuinely consumed), and heterogeneous profiles (a straggler, a slow
// half) move the bottleneck exactly as they do in the simulator. A zero
// cost handles messages as fast as the hardware allows.
func WithServiceProfile(cost func(p sim.ProcID) int64) Option {
	return func(r *Runtime) {
		for p := 1; p <= r.n; p++ {
			r.svc[p] = max(cost(sim.ProcID(p)), 0)
		}
	}
}

// WithFaults installs a fault-injection plan, the rt analog of
// sim.WithFaults: loss and duplication are decided at the Send boundary,
// crash/churn windows are enforced as each mailbox item is delivered (with
// downtime expressed in ticks of wall time since the runtime started), and
// local timers firing at a down processor are cancelled. The decision core
// (sim.FaultInjector) is shared with the simulator, so a plan built from
// deterministic Nth rules fires on the identical per-sender send indices on
// both backends; probabilistic rules draw from the same seeded stream but
// in the order the workers reach them, so only their statistics carry over.
func WithFaults(plan sim.FaultPlan) Option {
	return func(r *Runtime) {
		if plan.Empty() {
			r.faults = nil
			return
		}
		r.faults = sim.NewFaultInjector(r.n, plan)
	}
}

// opRec is the runtime's record of one in-flight operation. pending counts
// open attributed work exactly like the simulator's per-op event count:
// +1 at injection (released when the initiation callback returns), +1 per
// attributed message or timer (released when its delivery returns), +1 per
// Adopt hold (released by Release, or transferred to a SendAs message and
// released when that delivery returns). The transition to zero completes
// the operation, exactly once, on whichever goroutine performed it.
type opRec struct {
	id        sim.OpID
	initiator int32 // a sim.ProcID, narrowed to keep the record 48 bytes
	pending   int32
	startNs   int64
	// adopted is set once the record is in Runtime.ops, which happens at the
	// operation's first Adopt and for no other reason: a message carries its
	// *opRec, so only a token (an id) ever needs the lookup.
	adopted atomic.Bool
	// nodes is the number of DAG nodes numbered so far, the source included,
	// or 0 when the operation started with no OnDeliver hook.
	nodes  atomic.Int32
	msgs   int64
	waiter chan<- sim.OpDone // synchronous Inc; nil otherwise
}

// item is one mailbox entry: an initiation callback (start) or a message
// delivery, attributed to rec (nil = detached maintenance work). parent is
// the DAG node of the callback that sent the message or set the timer.
type item struct {
	msg    sim.Message
	rec    *opRec
	start  bool
	parent int32
}

// procLoad is one processor's message counters, written only by the
// executor currently holding that processor (Send and deliver both run on it)
// and padded to a cache line of their own, so counting a message contends
// with nobody.
type procLoad struct {
	sent, recv atomic.Int64
	_          [cacheLine - 16]byte
}

// cacheLine is the coherence granule procLoad pads to.
const cacheLine = 64

// processor is one mailbox and the Transport view its handlers run under.
// scheduled is the processor's claim on execution: set by the enqueue that
// finds it clear (which then puts the processor on the ready list), cleared by
// the executor (a worker or a sink's driver) that finds the mailbox empty
// after a batch. While it is set the processor is on the ready list or inside
// an executor exactly once, so view belongs to whichever executor popped it.
type processor struct {
	view      procView
	mu        sync.Mutex
	queue     []item
	scheduled bool
	stopped   bool
}

// readyList is the run queue: processors with pending mail, in the order
// they became ready, and the executors waiting for one. Each processor is on
// it at most once, so a ring of n slots never fills. Its mutex is never held
// together with a mailbox's.
type readyList struct {
	mu         sync.Mutex
	ring       []*processor
	head, size int
	// idle counts workers parked on work and not yet signalled: whoever makes
	// a processor ready signals one and takes it off the count, so no worker
	// sleeps while a processor waits and none is woken for nothing twice.
	idle   int
	work   sync.Cond
	closed bool
	// workers counts the worker goroutines not asked to retire, and retire
	// the ones asked but not yet gone.
	workers, retire int
	// driver, while the runtime serves a sink, is the sink whose awaiting
	// goroutine runs ready processors too (Runtime.lend): with no worker
	// parked, a processor that becomes ready posts its wake token instead.
	driver *Sink
	// lent records that a worker retired for driver and is owed back.
	lent bool
}

// push appends a processor that just became ready.
func (q *readyList) push(pr *processor) {
	q.mu.Lock()
	q.add(pr)
	q.mu.Unlock()
}

// add appends pr and wakes an idle executor for it. The caller holds q.mu.
func (q *readyList) add(pr *processor) {
	q.ring[(q.head+q.size)%len(q.ring)] = pr
	q.size++
	q.wakeOne()
}

// wakeOne wakes an idle executor: a parked worker when there is one, else
// the driver of the sink the runtime serves, which may be parked in Await.
// The caller holds q.mu.
func (q *readyList) wakeOne() {
	if q.idle > 0 {
		q.idle--
		q.work.Signal()
	} else if q.driver != nil {
		q.driver.post()
	}
}

// next hands a worker the processor at the head of the list, parking it
// while the list is empty; again, when non-nil, is the processor the worker
// just ran and found with more mail, which goes to the tail first, behind
// every processor already waiting. It returns nil once the list is closed or
// the worker is to retire.
func (q *readyList) next(again *processor) *processor {
	q.mu.Lock()
	defer q.mu.Unlock()
	if again != nil {
		q.add(again)
	}
	for q.size == 0 && !q.closed && q.retire == 0 {
		q.idle++
		q.work.Wait()
	}
	switch {
	case q.closed:
		return nil
	case q.retire > 0:
		q.retire--
		if q.size > 0 {
			q.wakeOne() // the wake-up this worker may have taken
		}
		return nil
	}
	return q.pop()
}

// poll is next for the sink's driver: the processor at the head of the list,
// or nil at once when none is waiting.
func (q *readyList) poll() *processor {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 || q.closed {
		return nil
	}
	return q.pop()
}

// pop removes the processor at the head of the list. The caller holds q.mu
// and has checked that the list is not empty.
func (q *readyList) pop() *processor {
	pr := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.size--
	return pr
}

// close releases every worker; processors still on the list are abandoned.
func (q *readyList) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.work.Broadcast()
}

// Runtime executes one counter.Machine on real cores. It implements
// counter.Async, so countersvc serves it as a shard and the sequence driver,
// the verification layer and the load readers use it like any
// simulator-backed counter — except that Start ignores its scheduling time
// (real time cannot be fast-forwarded; the driver paces admission itself).
//
// A Runtime is live from New until Close: its goroutines — the workers and
// the clock — exist even while no operation is in flight. Close must be called at quiescence (every
// started operation completed); operations still open at Close never
// complete.
type Runtime struct {
	m    counter.Machine
	n    int
	tick time.Duration
	svc  []int64 // per-processor service cost in ticks, 1..n

	procs []processor // 1..n
	ready readyList
	wg    sync.WaitGroup
	// helped is the mailbox buffer of help, which only the driver of the sink
	// the runtime serves calls.
	helped []item
	// serial, when non-nil, is held around every protocol callback
	// (Machine.Serial).
	serial *sync.Mutex

	start   time.Time
	nextOp  int64
	started int64
	closed  int32

	// ops resolves an OpToken back to its operation. It holds adopted
	// operations only (see opRec.adopted), so a protocol that never calls
	// Adopt never takes opsMu.
	opsMu sync.Mutex
	ops   map[sim.OpID]*opRec

	onDone    func(sim.OpDone)
	onDeliver func(sim.Delivery)

	loads []procLoad // per-processor message loads, 1..n

	// clock holds the pending timers (After, AfterDetached, frozen-crash
	// redeliveries); its goroutine is counted in wg.
	clock clock

	// faults, when non-nil, is the installed fault plan's decision core,
	// guarded by faultMu (workers consult it concurrently).
	faultMu sync.Mutex
	faults  *sim.FaultInjector
	// faultFired latches once the plan has fired anything at all — the one
	// bit a driver needs per wait, readable without faultMu.
	faultFired atomic.Bool
}

var _ counter.Async = (*Runtime)(nil)

// New builds a runtime for the machine and starts its goroutines: one worker
// per core the Go scheduler may use, at most one per processor, and the clock.
func New(m counter.Machine, opts ...Option) *Runtime {
	if m.Proto == nil || m.Initiate == nil || m.N < 1 {
		panic("rt: incomplete machine (need Proto, Initiate, N >= 1)")
	}
	r := &Runtime{
		m:     m,
		n:     m.N,
		tick:  DefaultTick,
		svc:   make([]int64, m.N+1),
		ops:   make(map[sim.OpID]*opRec),
		loads: make([]procLoad, m.N+1),
		clock: clock{wake: make(chan struct{}, 1)},
	}
	for _, opt := range opts {
		opt(r)
	}
	if m.Serial {
		r.serial = &sync.Mutex{}
	}
	r.procs = make([]processor, r.n+1)
	for p := 1; p <= r.n; p++ {
		r.procs[p].view = procView{r: r, p: sim.ProcID(p)}
	}
	r.ready.ring = make([]*processor, r.n)
	r.ready.work.L = &r.ready.mu
	r.start = time.Now()
	r.ready.workers = min(r.n, runtime.GOMAXPROCS(0))
	r.wg.Add(r.ready.workers + 1)
	for i := 0; i < r.ready.workers; i++ {
		go r.work()
	}
	go r.runClock()
	return r
}

// Name implements counter.Counter.
func (r *Runtime) Name() string { return r.m.Name }

// N implements counter.Counter.
func (r *Runtime) N() int { return r.n }

// Tick returns the wall-clock duration of one simulated tick.
func (r *Runtime) Tick() time.Duration { return r.tick }

// NowNs returns wall-clock nanoseconds since the runtime started.
func (r *Runtime) NowNs() int64 { return time.Since(r.start).Nanoseconds() }

// Origin returns the instant the runtime started: the zero of NowNs and of
// its operations' stamps.
func (r *Runtime) Origin() time.Time { return r.start }

// Ops returns the number of operations started so far.
func (r *Runtime) Ops() int { return int(atomic.LoadInt64(&r.started)) }

// MessagesTotal returns the total number of network messages sent so far:
// the sum of the per-processor sent counts.
func (r *Runtime) MessagesTotal() int64 {
	var total int64
	for p := 1; p <= r.n; p++ {
		total += r.loads[p].sent.Load()
	}
	return total
}

// Loads snapshots the per-processor sent and received message counts
// (1-indexed, length n+1) — the paper's m_p split into its two halves, as
// Network.Sent/Recv report for the sim backend — into sent and recv, and
// returns them. A slice shorter than n+1 (nil) is replaced by a fresh one,
// so a sampler that passes its previous snapshot back allocates nothing.
func (r *Runtime) Loads(sent, recv []int64) ([]int64, []int64) {
	if len(sent) < r.n+1 {
		sent = make([]int64, r.n+1)
	}
	if len(recv) < r.n+1 {
		recv = make([]int64, r.n+1)
	}
	for p := 1; p <= r.n; p++ {
		sent[p] = r.loads[p].sent.Load()
		recv[p] = r.loads[p].recv.Load()
	}
	return sent, recv
}

// FaultsActive reports whether a fault plan is installed.
func (r *Runtime) FaultsActive() bool { return r.faults != nil }

// FaultStats returns the fault events fired so far (the zero value when no
// plan is installed).
func (r *Runtime) FaultStats() sim.FaultStats {
	if r.faults == nil {
		return sim.FaultStats{}
	}
	r.faultMu.Lock()
	defer r.faultMu.Unlock()
	return r.faults.Stats()
}

// FaultFired reports whether the installed plan has fired at least one
// fault event — FaultStats().Any() without the injector's lock.
func (r *Runtime) FaultFired() bool { return r.faultFired.Load() }

// sendFate serializes the injector's per-send decision across workers.
func (r *Runtime) sendFate(from sim.ProcID) (drop, dup bool) {
	r.faultMu.Lock()
	drop, dup = r.faults.SendFate(from)
	r.faultMu.Unlock()
	if drop || dup {
		r.faultFired.Store(true)
	}
	return drop, dup
}

// faultIntercept enforces crash/churn windows on a mailbox item about to be
// delivered at processor p, mirroring the simulator's delivery-side check:
// drained items are destroyed (wedging their operations — their pending
// units are never released), frozen items re-enter the mailbox at recovery,
// and local timers are cancelled outright. Downtime is measured in ticks of
// wall time since the runtime started. Returns true when the item was
// consumed.
func (r *Runtime) faultIntercept(p sim.ProcID, it item) bool {
	t := r.NowNs() / int64(r.tick)
	r.faultMu.Lock()
	down, until, forever := r.faults.DownAt(p, t)
	if !down {
		r.faultMu.Unlock()
		return false
	}
	// Every branch below counts one fault event.
	r.faultFired.Store(true)
	if it.msg.Local && !it.start {
		r.faults.NoteTimerCancelled()
		r.faultMu.Unlock()
		return true
	}
	if r.faults.Plan().Freeze && !forever {
		r.faults.NoteCrashDeferred()
		r.faultMu.Unlock()
		// The frozen delivery re-enters the mailbox at recovery, through the
		// clock so Close still cancels it.
		r.clock.schedule(until*int64(r.tick), p, it)
		return true
	}
	r.faults.NoteCrashDropped()
	r.faultMu.Unlock()
	return true
}

// OnOpDone registers the completion callback, which receives each finished
// operation stamped in NowNs. It must be set before the first Start and not
// changed while operations are in flight; the callback runs on the workers,
// and on a sink's driver while it helps, and must not block for long
// (countersvc hands the record to a Sink).
func (r *Runtime) OnOpDone(fn func(sim.OpDone)) { r.onDone = fn }

// OnDeliver is sim.Network.OnDeliver on real cores. The hook runs on the
// executors, concurrently, and since each operation numbers its nodes with its
// own counter, its concurrent deliveries may report out of node order
// (trace.Recorder handles both). Set it from the goroutine that starts
// operations, while no operation started under a hook is in flight.
func (r *Runtime) OnDeliver(fn func(sim.Delivery)) { r.onDeliver = fn }

// Start implements counter.Async: it injects one increment by p and returns
// its operation id without waiting. Real time cannot be scheduled ahead, so
// the operation starts immediately whatever at says; a driver paces its
// Start calls in real time instead. A positive at is taken as the NowNs
// reading the caller made for this admission and becomes the operation's
// start stamp, so a driver that stamps its own records with that reading
// pays for one clock read per admission, not two; otherwise the runtime
// reads the clock itself. Callers must keep at most one operation per
// initiator in flight (counter.Ops.Begin panics on overlap, as on the sim
// backend).
func (r *Runtime) Start(at int64, p sim.ProcID) sim.OpID {
	return r.startWith(p, at, nil)
}

// Inc implements counter.Counter: it runs one increment synchronously and
// returns the delivered value. Unlike the sim backend's Inc it does not
// drain other in-flight operations — it only waits for its own.
func (r *Runtime) Inc(p sim.ProcID) (int, error) {
	if p < 1 || int(p) > r.n {
		return 0, fmt.Errorf("rt: processor %v outside [1,%d]", p, r.n)
	}
	ch := make(chan sim.OpDone, 1)
	id := r.startWith(p, 0, ch)
	<-ch
	if r.m.Value == nil {
		return 0, fmt.Errorf("rt: machine %q records no values", r.m.Name)
	}
	v, ok := r.m.Value(id)
	if !ok {
		return 0, fmt.Errorf("rt: op %d completed without a value", id)
	}
	return v, nil
}

// OpValue implements counter.Async.
func (r *Runtime) OpValue(id sim.OpID) (int, bool) {
	if r.m.Value == nil {
		return 0, false
	}
	return r.m.Value(id)
}

// Guarantee implements counter.Async: the machine's claimed level.
func (r *Runtime) Guarantee() counter.Guarantee { return r.m.Guarantee }

// startWith injects one operation stamped startNs; a non-positive startNs
// means the caller has no clock reading of its own to offer.
func (r *Runtime) startWith(p sim.ProcID, startNs int64, waiter chan<- sim.OpDone) sim.OpID {
	if atomic.LoadInt32(&r.closed) != 0 {
		panic("rt: Start after Close")
	}
	if p < 1 || int(p) > r.n {
		panic(fmt.Sprintf("rt: processor %v outside [1,%d]", p, r.n))
	}
	if startNs <= 0 {
		startNs = r.NowNs()
	}
	id := sim.OpID(atomic.AddInt64(&r.nextOp, 1))
	rec := &opRec{id: id, initiator: int32(p), startNs: startNs, pending: 1, waiter: waiter}
	if r.onDeliver != nil {
		rec.nodes.Store(1)
	}
	atomic.AddInt64(&r.started, 1)
	r.enqueue(p, item{rec: rec, start: true})
	return id
}

// Close stops every goroutine of the runtime and cancels pending timers. It
// must be called at quiescence: operations still in flight never complete
// (their remaining messages are dropped at the stopped mailboxes, and
// processors still waiting on the ready list are never run).
func (r *Runtime) Close() {
	if !atomic.CompareAndSwapInt32(&r.closed, 0, 1) {
		return
	}
	r.clock.close()
	for p := 1; p <= r.n; p++ {
		pr := &r.procs[p]
		pr.mu.Lock()
		pr.stopped = true
		pr.mu.Unlock()
	}
	r.ready.close()
	r.wg.Wait()
}

// enqueue appends an item to processor p's mailbox and, when the processor is
// neither waiting for a worker nor inside one, puts it on the ready list.
// After Close the item is dropped — only detached maintenance work can still
// be in motion then.
func (r *Runtime) enqueue(p sim.ProcID, it item) {
	pr := &r.procs[p]
	pr.mu.Lock()
	if pr.stopped {
		pr.mu.Unlock()
		return
	}
	pr.queue = append(pr.queue, it)
	idle := !pr.scheduled
	pr.scheduled = true
	pr.mu.Unlock()
	if idle {
		r.ready.push(pr)
	}
}

// work is one worker: take the next ready processor, run it, and give it up
// — back to the ready list when mail arrived meanwhile, so that one busy
// processor cannot keep a worker from the others.
func (r *Runtime) work() {
	defer r.wg.Done()
	var (
		again *processor
		batch []item // the mailbox being drained, recycled as the next one's queue
	)
	for {
		pr := r.ready.next(again)
		if pr == nil {
			return
		}
		again = nil
		if r.run(pr, &batch) {
			again = pr
		}
	}
}

// run delivers the mailbox a claimed processor has now, in arrival order,
// swapping in *batch as its new queue and keeping the drained one there for
// the next call. It reports whether mail arrived meanwhile: the processor
// then stays claimed and goes back to the tail of the ready list; otherwise
// its claim is released.
func (r *Runtime) run(pr *processor, batch *[]item) bool {
	pr.mu.Lock()
	b := pr.queue
	pr.queue = (*batch)[:0]
	pr.mu.Unlock()
	for i := range b {
		r.deliver(&pr.view, b[i])
		b[i] = item{} // drop the opRec reference
	}
	*batch = b
	pr.mu.Lock()
	more := len(pr.queue) > 0
	pr.scheduled = more
	pr.mu.Unlock()
	return more
}

// help runs the processor at the head of the ready list on the calling
// goroutine, the driver of the sink the runtime serves, with the same claim
// as a worker's; it reports whether one was waiting. A panic in a protocol
// callback propagates to the caller and leaves the processor claimed, so its
// deliveries stop there.
func (r *Runtime) help() bool {
	pr := r.ready.poll()
	if pr == nil {
		return false
	}
	if r.run(pr, &r.helped) {
		r.ready.push(pr)
	}
	return true
}

// lend makes s's awaiting goroutine one of the runtime's executors: while
// the runtime has more than one worker, one retires, and a processor that
// becomes ready while no worker is parked wakes s's driver, which runs it
// (help). So at most GOMAXPROCS goroutines run protocol code. A runtime
// serves one sink; reclaim ends the loan.
func (r *Runtime) lend(s *Sink) {
	q := &r.ready
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.driver != nil {
		panic("rt: runtime already serves a sink")
	}
	q.driver = s
	if q.workers > 1 && !q.closed {
		q.workers--
		q.retire++
		q.lent = true
		if q.idle > 0 {
			q.idle--
			q.work.Signal()
		}
	}
}

// reclaim ends lend's loan: the sink's driver stops being woken, and a
// runtime still open gets its worker back.
func (r *Runtime) reclaim() {
	q := &r.ready
	q.mu.Lock()
	defer q.mu.Unlock()
	q.driver = nil
	if !q.lent || q.closed {
		return
	}
	q.lent = false
	q.workers++
	if q.retire > 0 {
		q.retire-- // the worker had not left yet
		return
	}
	r.wg.Add(1) // before Close's Wait: Close closes q under q.mu first
	go r.work()
}

// deliver runs one mailbox item: service emulation, then the protocol
// callback, then the pending release that may complete the operation —
// the same order as the simulator's event delivery.
func (r *Runtime) deliver(view *procView, it item) {
	if r.faults != nil && r.faultIntercept(view.p, it) {
		return
	}
	network := !it.start && !it.msg.Local
	if network {
		r.loads[view.p].recv.Add(1)
		if c := r.svc[view.p]; c > 0 {
			spin(time.Duration(c) * r.tick)
		}
	}
	view.cur, view.node = it.rec, it.parent
	if rec := it.rec; rec != nil && !it.msg.Local && rec.nodes.Load() > 0 {
		d := sim.Delivery{Op: rec.id, Proc: view.p, Parent: -1}
		if !it.start {
			d.Node, d.Parent = int(rec.nodes.Add(1)-1), int(it.parent)
		}
		view.node = int32(d.Node)
		r.onDeliver(d)
	}
	if r.serial != nil {
		r.serial.Lock()
	}
	if it.start {
		r.m.Initiate(view, view.p)
	} else {
		r.m.Proto.Deliver(view, it.msg)
	}
	if r.serial != nil {
		r.serial.Unlock()
	}
	view.cur = nil
	if it.rec != nil {
		r.opRelease(it.rec)
	}
}

// opRelease retires one unit of pending attributed work; the transition to
// zero completes the operation.
func (r *Runtime) opRelease(rec *opRec) {
	if atomic.AddInt32(&rec.pending, -1) > 0 {
		return
	}
	end := r.NowNs()
	if rec.adopted.Load() {
		r.opsMu.Lock()
		delete(r.ops, rec.id)
		r.opsMu.Unlock()
	}
	d := sim.OpDone{
		ID:        rec.id,
		Initiator: sim.ProcID(rec.initiator),
		Start:     rec.startNs,
		End:       end,
		Messages:  atomic.LoadInt64(&rec.msgs),
	}
	if rec.waiter != nil {
		rec.waiter <- d
	}
	if r.onDone != nil {
		r.onDone(d)
	}
}

// lookup resolves a token's operation: nil once the operation completed (a
// spent token) or when no Adopt ever issued a token for it.
func (r *Runtime) lookup(id sim.OpID) *opRec {
	r.opsMu.Lock()
	rec := r.ops[id]
	r.opsMu.Unlock()
	return rec
}

// scheduleTimer arms a wakeup that re-enters processor p's mailbox as a
// local message after delay ticks of wall time. Attributed timers
// (rec != nil) already hold a pending unit taken by After.
func (r *Runtime) scheduleTimer(p sim.ProcID, delay int64, pl sim.Payload, rec *opRec, parent int32) {
	if delay < 0 {
		delay = 0
	}
	r.clock.schedule(r.NowNs()+delay*int64(r.tick), p,
		item{msg: sim.Message{From: p, To: p, Payload: pl, Local: true}, rec: rec, parent: parent})
}

// spin busy-waits for d, consuming the calling executor's core — the emulated
// per-message processing cost. Sleeping would free the core and let the
// scheduler hide the serial-server bottleneck the emulation exists to
// expose; at microsecond scale the sleep granularity would also swamp the
// cost being modelled.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// procView is the sim.Transport implementation handed to protocol
// callbacks: it belongs to one processor, is used by the executor currently
// holding that processor, and carries the operation the current delivery is
// attributed to and the DAG node it acts at. All Transport methods are
// called from inside a callback only (the interface's calling discipline).
type procView struct {
	r    *Runtime
	p    sim.ProcID
	cur  *opRec // operation of the executing callback; nil when detached
	node int32
}

var _ sim.Transport = (*procView)(nil)

// N implements sim.Transport.
func (v *procView) N() int { return v.r.n }

// Now implements sim.Transport: wall-clock nanoseconds since the runtime
// started.
func (v *procView) Now() int64 { return v.r.NowNs() }

// CurrentOp implements sim.Transport.
func (v *procView) CurrentOp() sim.OpID {
	if v.cur == nil {
		return 0
	}
	return v.cur.id
}

// Send implements sim.Transport: the message is appended to the
// destination's mailbox and, when the executing callback belongs to an
// operation, attributed to it (one pending unit, released when the
// delivery returns — the simulator's accounting exactly).
func (v *procView) Send(to sim.ProcID, pl sim.Payload) {
	v.send(to, pl, v.cur, v.node, true)
}

// send is the shared body of Send and SendAs, as Network.enqueueSend is on
// the simulator: accounting, the fault plan's verdict and the mailbox append,
// attributed to rec (nil = detached), sent from DAG node parent. countPending
// takes a pending unit (Send); SendAs instead converts the token's hold.
func (v *procView) send(to sim.ProcID, pl sim.Payload, rec *opRec, parent int32, countPending bool) {
	if to < 1 || int(to) > v.r.n {
		panic(fmt.Sprintf("rt: send to processor %v outside [1,%d]", to, v.r.n))
	}
	v.accountSend(rec, countPending)
	it := item{msg: sim.Message{From: v.p, To: to, Payload: pl}, rec: rec, parent: parent}
	if v.r.faults != nil {
		drop, dup := v.r.sendFate(v.p)
		if drop {
			// Destroyed in flight after the sender paid: the pending unit (or
			// the adopted hold) is never released, so the operation wedges —
			// the simulator's loss semantics exactly.
			return
		}
		if dup {
			// A genuine second transmission with its own pending delivery,
			// taken before the first copy is out: that copy's delivery may
			// release the operation's last other unit on another worker.
			v.accountSend(rec, true)
			v.r.enqueue(to, it)
		}
	}
	v.r.enqueue(to, it)
}

// accountSend charges one physical transmission to the sender's load and,
// when attributed, to the operation.
func (v *procView) accountSend(rec *opRec, countPending bool) {
	v.r.loads[v.p].sent.Add(1)
	if rec != nil {
		atomic.AddInt64(&rec.msgs, 1)
		if countPending {
			atomic.AddInt32(&rec.pending, 1)
		}
	}
}

// Adopt implements sim.Transport: it takes an extra pending unit on the
// current operation, keeping it open until SendAs transfers the unit to a
// message or Release discards it. The operation's first Adopt registers it
// in Runtime.ops, so that the token resolves from any processor.
func (v *procView) Adopt() sim.OpToken {
	rec := v.cur
	if rec == nil {
		panic("rt: Adopt outside an operation")
	}
	atomic.AddInt32(&rec.pending, 1)
	if !rec.adopted.Load() {
		// The hold just taken keeps the operation open, so the record cannot
		// be deleted before it is registered.
		v.r.opsMu.Lock()
		v.r.ops[rec.id] = rec
		v.r.opsMu.Unlock()
		rec.adopted.Store(true)
	}
	return sim.TokenFor(rec.id, int(v.node))
}

// SendAs implements sim.Transport: Send attributed to the adopted
// operation. The token's pending hold transfers to the in-flight message
// (no new unit taken; the delivery's return releases it).
func (v *procView) SendAs(tok sim.OpToken, to sim.ProcID, pl sim.Payload) {
	rec := v.r.lookup(tok.Op())
	if rec == nil {
		panic(fmt.Sprintf("rt: SendAs with spent or unknown token (op %d)", tok.Op()))
	}
	v.send(to, pl, rec, int32(tok.Node()), false)
}

// Release implements sim.Transport: it discards an adopted hold, possibly
// completing the operation.
func (v *procView) Release(tok sim.OpToken) {
	rec := v.r.lookup(tok.Op())
	if rec == nil {
		panic(fmt.Sprintf("rt: Release of spent or unknown token (op %d)", tok.Op()))
	}
	v.r.opRelease(rec)
}

// After implements sim.Transport: a local wakeup for this processor after
// delay ticks of wall time, attributed to (and keeping open) the current
// operation.
func (v *procView) After(delay int64, pl sim.Payload) {
	rec := v.cur
	if rec != nil {
		atomic.AddInt32(&rec.pending, 1)
	}
	v.r.scheduleTimer(v.p, delay, pl, rec, v.node)
}

// AfterDetached implements sim.Transport: a maintenance wakeup belonging to
// no operation.
func (v *procView) AfterDetached(delay int64, pl sim.Payload) {
	v.r.scheduleTimer(v.p, delay, pl, nil, 0)
}
