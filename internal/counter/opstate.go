package counter

import (
	"fmt"
	"sync"

	"distcount/internal/sim"
)

// Ops is the per-initiator operation bookkeeping shared by every counter
// implementation: each initiating processor owns at most one in-flight
// operation with protocol-specific state S (a quorum probe, a traversal, or
// nothing at all), and every completed operation's delivered value V is
// recorded under its simulator operation id.
//
// The type replaces the ad-hoc single-op result slots (result/resultReady)
// and per-processor delivery arrays (valueOf/delivered) the implementations
// grew independently, and it is what makes all of them concurrency-capable
// in the same way: state is keyed by initiator, never global, so operations
// from distinct initiators cannot clobber each other. Begin enforces the
// Async contract — at most one operation per initiator in flight — by
// panicking on overlap instead of silently corrupting state.
//
// Finish, by contrast, tolerates staleness: under fault injection a
// duplicated or crash-deferred reply legitimately arrives after its
// operation already finished (or after the initiator moved on to its next
// operation), so a Finish whose initiator is idle or whose in-flight
// operation is not the current delivery context is dropped and counted
// (DroppedStale) rather than treated as fatal. Protocols that read state on
// a reply path use GetFor, which makes the same discrimination explicit. In
// fault-free runs a dropped Finish still surfaces — the operation completes
// without a value and verification reports it as missing — so the bug class
// the old panic caught remains visible, just as data instead of a crash.
//
// Values are read either per operation with Take (the engine's verification
// path and the shared sequential driver RunInc) or per initiator with Last
// (the readout the concurrent experiments use). Take consumes the value so
// long workload runs do not accumulate per-op state; the per-initiator slot
// always keeps the most recent value.
//
// Layout: the table sits on every operation's path (Begin, Finish, Take, and
// GetFor per reply on the quorum protocols), so it is dense rather than
// hashed. Per-initiator state is one slot in a slice indexed by processor
// id, allocated on the initiator's first Begin and reused — zeroed — by every
// later one; delivered values wait for Take in a small ring indexed by the
// sequential operation id (see valueTable). A steady-state operation
// therefore allocates nothing here.
type Ops[S, V any] struct {
	// mu guards the table. On the simulator every access runs on one
	// goroutine and the lock is uncontended; on the rt backend distinct
	// initiators' operations run on different workers at once, and the table is
	// the one piece of protocol state they all touch. The *S returned by
	// Begin/Get stays confined to its own operation's delivery contexts, so
	// locking the table operations suffices.
	mu sync.Mutex
	// slots is indexed by initiator id and grown on demand; an entry is nil
	// until that processor first initiates. Slots are held by pointer so the
	// *S handed out by Begin/Get/GetFor survives the slice growing.
	slots []*opSlot[S, V]
	// values holds delivered values of completed operations until consumed.
	values valueTable[V]
	// droppedStale counts Finish/GetFor calls discarded because their
	// operation was no longer the initiator's current one (duplicated or
	// late replies under fault injection).
	droppedStale int64
}

// opSlot is one initiator's row: its open operation (op == 0 when idle) with
// the protocol state, and the most recent value delivered to it. Keeping the
// simulator id next to the state is what lets Finish and GetFor assert they
// run in that operation's own delivery context.
type opSlot[S, V any] struct {
	op      sim.OpID
	st      S
	lastVal V
	lastOK  bool
}

// NewOps creates an empty operation table.
func NewOps[S, V any]() *Ops[S, V] {
	return &Ops[S, V]{}
}

// slot returns initiator p's row, or nil when p has never initiated.
func (o *Ops[S, V]) slot(p sim.ProcID) *opSlot[S, V] {
	if uint(p) >= uint(len(o.slots)) {
		return nil
	}
	return o.slots[p]
}

// current returns p's row when p has an operation in flight and that
// operation is the current delivery context; otherwise the call is stale —
// it is counted and nil is returned.
func (o *Ops[S, V]) current(nw sim.Transport, p sim.ProcID) *opSlot[S, V] {
	s := o.slot(p)
	if s == nil || s.op == 0 || nw.CurrentOp() != s.op {
		o.droppedStale++
		return nil
	}
	return s
}

// Begin opens initiator p's operation and returns its zero-valued state for
// the protocol to fill. It must run inside the operation's start callback
// (it captures the current operation id) and panics if p already has an
// operation in flight: callers — the workload engine, the sequential driver
// — are required to keep at most one operation per initiator open, and a
// violation would corrupt per-initiator state in ways that only surface as
// wrong values much later.
func (o *Ops[S, V]) Begin(nw sim.Transport, p sim.ProcID) *S {
	id := nw.CurrentOp()
	if id == 0 {
		panic("counter: Begin called outside an operation context")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if int(p) >= len(o.slots) {
		grown := make([]*opSlot[S, V], max(int(p)+1, 2*len(o.slots)))
		copy(grown, o.slots)
		o.slots = grown
	}
	s := o.slots[p]
	switch {
	case s == nil:
		s = new(opSlot[S, V])
		o.slots[p] = s
	case s.op != 0:
		panic(fmt.Sprintf("counter: initiator %v already has operation %d in flight (starting %d)", p, s.op, id))
	default:
		// A reused slot must not leak the previous operation's state.
		var zero S
		s.st = zero
	}
	s.op = id
	s.lastOK = false
	return &s.st
}

// Get returns initiator p's in-flight operation state. It panics when p has
// none — receiving a protocol message for an idle initiator means the
// message was stray or the state was dropped early, both protocol bugs.
func (o *Ops[S, V]) Get(p sim.ProcID) *S {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.slot(p)
	if s == nil || s.op == 0 {
		panic(fmt.Sprintf("counter: initiator %v has no operation in flight", p))
	}
	return &s.st
}

// InFlight reports whether initiator p currently has an open operation.
func (o *Ops[S, V]) InFlight(p sim.ProcID) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.slot(p)
	return s != nil && s.op != 0
}

// Finish completes initiator p's operation with the delivered value v,
// recording it under the operation's id and as p's most recent value, and
// frees p for its next operation. It must run in the completing operation's
// own delivery context: when p has no operation in flight, or the in-flight
// operation differs from the current delivery context, the call is a stale
// completion — a duplicated or crash-deferred reply outliving its
// operation — and is dropped and counted rather than applied, so a late
// copy can never overwrite a newer operation's state. It reports whether
// the completion was applied.
func (o *Ops[S, V]) Finish(nw sim.Transport, p sim.ProcID, v V) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.current(nw, p)
	if s == nil {
		return false
	}
	o.values.put(s.op, v)
	s.op = 0
	s.lastVal, s.lastOK = v, true
	return true
}

// GetFor returns initiator p's in-flight operation state only when that
// operation is the one the current delivery belongs to. Reply-path handlers
// use it instead of Get so a duplicated or late message — whose delivery
// context is its original operation — cannot touch the state of the
// initiator's NEXT operation, and is instead recognized as stale (ok
// false, counted) and ignored.
func (o *Ops[S, V]) GetFor(nw sim.Transport, p sim.ProcID) (*S, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.current(nw, p)
	if s == nil {
		return nil, false
	}
	return &s.st, true
}

// DroppedStale returns the number of stale Finish/GetFor calls discarded so
// far.
func (o *Ops[S, V]) DroppedStale() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.droppedStale
}

// Take returns the value delivered to the completed operation id and
// forgets it, so drivers running unbounded operation streams do not
// accumulate per-op state. ok is false when the operation is unknown, still
// in flight, or already consumed.
func (o *Ops[S, V]) Take(id sim.OpID) (V, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.values.take(id)
}

// Last returns the most recent value delivered to initiator p; ok is false
// when none arrived since p's last Begin.
func (o *Ops[S, V]) Last(p sim.ProcID) (V, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if s := o.slot(p); s != nil {
		return s.lastVal, s.lastOK
	}
	var zero V
	return zero, false
}

// Clone returns an independent deep copy. deepState, when non-nil, deep-
// copies one in-flight operation's protocol state (needed when S holds
// slices or maps); nil keeps the shallow copy, sufficient for value-only
// states. An idle initiator's leftover state is not carried over: the next
// Begin would zero it anyway.
func (o *Ops[S, V]) Clone(deepState func(*S) S) *Ops[S, V] {
	o.mu.Lock()
	defer o.mu.Unlock()
	cp := &Ops[S, V]{
		slots:        make([]*opSlot[S, V], len(o.slots)),
		values:       o.values.clone(),
		droppedStale: o.droppedStale,
	}
	for p, s := range o.slots {
		if s == nil {
			continue
		}
		ns := &opSlot[S, V]{op: s.op, lastVal: s.lastVal, lastOK: s.lastOK}
		if s.op != 0 {
			ns.st = s.st
			if deepState != nil {
				ns.st = deepState(&s.st)
			}
		}
		cp.slots[p] = ns
	}
	return cp
}

// valueRingSize is the number of delivered values the table holds without
// hashing. Drivers consume a value within the completion that produced it
// (the engine) or right after the run quiesces (RunInc), so only a handful
// are ever unconsumed at once; the ring only has to be wide enough that
// those few rarely collide.
const valueRingSize = 64

// valueTable stores delivered values until Take consumes them: a
// power-of-two ring indexed by the sequential operation id — the
// protocol-side twin of sim's op table — with a spill map behind it. A value
// still unconsumed when a later operation id claims its cell moves to the
// map, so nothing is ever lost: a caller that never Takes (the experiments
// that only read Last) accumulates values there, one map insert per
// operation, exactly as the map-only table did.
type valueTable[V any] struct {
	ring  [valueRingSize]valueCell[V]
	spill map[sim.OpID]V
}

// valueCell is one ring entry; id == 0 marks it empty (operation ids start
// at 1).
type valueCell[V any] struct {
	id sim.OpID
	v  V
}

func (t *valueTable[V]) put(id sim.OpID, v V) {
	c := &t.ring[int(id)&(valueRingSize-1)]
	if c.id != 0 && c.id != id {
		if t.spill == nil {
			t.spill = make(map[sim.OpID]V)
		}
		t.spill[c.id] = c.v
	}
	c.id, c.v = id, v
}

func (t *valueTable[V]) take(id sim.OpID) (V, bool) {
	c := &t.ring[int(id)&(valueRingSize-1)]
	if c.id == id && id != 0 {
		v := c.v
		*c = valueCell[V]{}
		return v, true
	}
	v, ok := t.spill[id]
	if ok {
		delete(t.spill, id)
	}
	return v, ok
}

func (t *valueTable[V]) clone() valueTable[V] {
	cp := valueTable[V]{ring: t.ring}
	if len(t.spill) > 0 {
		cp.spill = make(map[sim.OpID]V, len(t.spill))
		for id, v := range t.spill {
			cp.spill[id] = v
		}
	}
	return cp
}

// RunInc drives one increment by p through the concurrent Start path and
// runs the network to quiescence — the shared body of every
// implementation's sequential Inc method (the paper's execution model:
// "enough time elapses in between any two inc requests").
func RunInc(c Valued, p sim.ProcID) (int, error) {
	net := c.Net()
	id := c.Start(net.Now(), p)
	if err := net.Run(); err != nil {
		return 0, err
	}
	v, ok := c.OpValue(id)
	if !ok {
		return 0, fmt.Errorf("%s: operation by %v terminated without a value", c.Name(), p)
	}
	return v, nil
}
