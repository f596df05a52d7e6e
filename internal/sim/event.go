package sim

import "math/bits"

// event is a queued occurrence: either a message delivery or an operation
// start, whose callback rides in the payload slot as a startFn. Events are
// ordered by (at, seq); seq is a strictly increasing tie-breaker that makes
// simulations fully deterministic.
//
// An event lives in one place from enqueue to delivery: eventQueue.slot
// hands out its queue slot, the sender writes the fields there, and pop
// returns a pointer to that same slot, which Step reads. The pointer is valid
// until the next enqueue (which may reuse the slot), so Step copies what it
// needs into locals before any callback runs. The layout is packed into one
// 64-byte cache line (event_test.go pins the size): the struct's width is the
// simulator's per-message memory traffic. The sim.Message a protocol sees is
// not stored; Step rebuilds it from from/to/payload/word/local at Deliver.
// Processor ids and DAG node indices fit 32 bits by a wide margin (the
// largest loaded run is n = 15625).
type event struct {
	at      int64
	seq     uint64
	payload Payload // the message's payload, or an operation start's startFn
	word    int64   // Message.Word
	op      OpID
	from    int32
	to      int32
	parent  int32 // DAG node of the sending callback within op (Delivery.Parent)
	// local marks a timer/self-wakeup (Message.Local).
	local bool
	// reserved marks a delivery whose receiver's service slot is booked:
	// `at` is that slot, and the event must not be booked again.
	reserved bool
}

// eventHeap is a binary min-heap of events ordered by (at, seq). A hand
// rolled heap avoids the interface boxing of container/heap on the
// simulator's hottest path.
type eventHeap struct {
	evs []event
}

func (h *eventHeap) len() int { return len(h.evs) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.evs[i], &h.evs[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// grow extends the heap by one slot at its tail and returns it, unordered:
// the caller fills it and sifts it in with up. Growing within capacity
// reslices without clearing, so the slot's old contents (the event the last
// pop left there) stay readable until the caller overwrites them.
func (h *eventHeap) grow() *event {
	if n := len(h.evs); n < cap(h.evs) {
		h.evs = h.evs[:n+1]
	} else {
		h.evs = append(h.evs, event{})
	}
	return &h.evs[len(h.evs)-1]
}

// up sifts the event at index i towards the root to its (at, seq) place.
func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

// pop removes the (at, seq)-smallest event and returns a pointer to it: the
// root is swapped to the tail, just past the shrunken heap, where it stays
// until the next grow reuses the slot.
func (h *eventHeap) pop() *event {
	last := len(h.evs) - 1
	h.evs[0], h.evs[last] = h.evs[last], h.evs[0]
	h.evs = h.evs[:last]
	h.siftDown(0)
	return &h.evs[:last+1][last]
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.evs)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.evs[i], h.evs[smallest] = h.evs[smallest], h.evs[i]
		i = smallest
	}
}

// ringWindow is the span, in ticks, of the near-future bucket ring: events
// scheduled within ringWindow ticks of the last delivery bypass the binary
// heap. It must be exactly 64 so one machine word can index bucket
// occupancy. Unit-latency sends, same-tick timers, and booked service
// slots — the simulator's dominant event population — all land inside the
// window; only far timers, deep receiver backlogs and scheduled future
// operations pay for the heap.
const ringWindow = 64

// eventQueue is the simulator's pending-event set: a bucket ring over the
// next ringWindow ticks backed by a binary min-heap for everything further
// out. Ordering is exactly (at, seq) — identical to a pure heap, which the
// property test in event_test.go pins — but the common slot/pop pair costs
// O(1) instead of O(log n) sift chains.
//
// Invariants:
//   - base only advances, and never past the earliest queued event, so
//     every ring event's timestamp stays inside [base, base+ringWindow):
//     ticks map 1:1 onto buckets (bucket = at mod ringWindow).
//   - within a bucket, events from heads[b] on are sorted by seq. Enqueues
//     carry fresh, increasing seqs except the re-entries of the arrival
//     booking path (a message waiting for its service slot keeps its seq)
//     and crash-freeze re-entries (which renew it); those binary-insert.
//   - occ bit b is set iff bucket b has undelivered events; nearLen counts
//     them, so emptiness checks and peeks never scan the ring.
//   - staged marks the far heap's tail as a slot handed out by slot and not
//     yet sifted in; every read of the heap's order sifts it first (farMin).
type eventQueue struct {
	far     eventHeap
	near    [ringWindow][]event
	heads   [ringWindow]int // per-bucket pop cursor into near[b]
	occ     uint64          // bucket-occupancy bitmask
	base    int64           // ring window start (last delivered timestamp)
	nearLen int
	staged  bool
}

func (q *eventQueue) len() int { return q.nearLen + q.far.len() }

// bucketCap is each near bucket's first capacity: a unit-latency run keeps
// a handful of events per tick, and a bucket that needs more grows past its
// slab share by append and keeps the larger array.
const bucketCap = 4

// carve gives each bucket of an empty queue its share of one slab, so a
// fresh network's first pass around the ring costs one allocation instead
// of three doublings per bucket. Full slice expressions keep a bucket's
// append from running into its neighbour's share. Only New carves: a clone
// is mostly an adversary probe that runs one operation, for which growing
// the few buckets it touches is cheaper than zeroing a slab.
func (q *eventQueue) carve() {
	slab := make([]event, ringWindow*bucketCap)
	for b := range q.near {
		q.near[b] = slab[b*bucketCap : b*bucketCap : (b+1)*bucketCap]
	}
}

// slot is the queue's one enqueue primitive: it reserves the place of an
// event due at `at` with tie-breaker seq — a ring bucket's slot when at falls
// inside the current window, otherwise the far heap's tail, sifted in at the
// next read of the heap — writes at and seq there, and returns it. The caller
// writes every other field: the slot may hold a delivered event's leftovers.
// slot writes no other field of a slot already in use, so an event
// re-enqueued from the slot pop returned (which the new slot may be) can be
// copied over field by field.
func (q *eventQueue) slot(at int64, seq uint64) *event {
	var e *event
	b := int(at) & (ringWindow - 1)
	bucket := q.near[b]
	switch n := len(bucket); {
	case uint64(at-q.base) >= ringWindow: // also catches a (never expected) past event
		q.settle()
		e = q.far.grow()
		q.staged = true
		e.at, e.seq = at, seq
		return e
	case n < cap(bucket) && (n == q.heads[b] || bucket[n-1].seq < seq):
		// The overwhelmingly common case: room in the bucket and a fresh
		// seq, larger than everything already queued for the tick.
		bucket = bucket[:n+1]
		q.near[b] = bucket
		e = &bucket[n]
	default:
		e = q.nearInsert(b, seq)
	}
	q.occ |= 1 << b
	q.nearLen++
	e.at, e.seq = at, seq
	return e
}

// nearInsert is slot's slow path into bucket b, for a full bucket or an
// arrival-booked service-slot or freeze re-entry overtaken by newer sends to
// the same tick: it grows the bucket by one and binary-inserts by seq behind
// the pop cursor (a fresh seq lands at the end).
func (q *eventQueue) nearInsert(b int, seq uint64) *event {
	bucket := q.near[b]
	n := len(bucket)
	bucket = append(bucket, event{})
	q.near[b] = bucket
	lo, hi := q.heads[b], n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bucket[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(bucket[lo+1:], bucket[lo:n])
	return &bucket[lo]
}

// settle sifts a staged far-heap slot into place.
func (q *eventQueue) settle() {
	if q.staged {
		q.far.up(q.far.len() - 1)
		q.staged = false
	}
}

// farMin returns the far heap's earliest event. Must not be called on an
// empty heap.
func (q *eventQueue) farMin() *event {
	q.settle()
	return &q.far.evs[0]
}

// nearMin returns the ring's earliest pending event. Must not be called on
// an empty ring.
func (q *eventQueue) nearMin() *event {
	// Rotate the occupancy mask so bit k corresponds to tick base+k; the
	// lowest set bit is the earliest occupied tick in the window.
	r := bits.RotateLeft64(q.occ, -int(q.base&(ringWindow-1)))
	t := q.base + int64(bits.TrailingZeros64(r))
	b := int(t) & (ringWindow - 1)
	return &q.near[b][q.heads[b]]
}

// peekAt returns the timestamp of the earliest queued event; ok is false
// when the queue is empty.
func (q *eventQueue) peekAt() (int64, bool) {
	switch {
	case q.nearLen == 0 && q.far.len() == 0:
		return 0, false
	case q.nearLen == 0:
		return q.farMin().at, true
	case q.far.len() == 0:
		return q.nearMin().at, true
	}
	at := q.nearMin().at
	if h := q.farMin().at; h < at {
		return h, true
	}
	return at, true
}

// pop removes the (at, seq)-smallest queued event if it is due before
// limit, advancing the ring window to its timestamp, and returns a pointer to
// its slot; it returns nil, and removes nothing, when the queue is empty or
// its earliest event is at limit or later. The slot stays intact until the
// next enqueue, which may reuse it. Finding the earliest event is the peek,
// so a delivery loop that pops up to a limit peeks once per event.
func (q *eventQueue) pop(limit int64) *event {
	if q.nearLen == 0 {
		if q.far.len() == 0 || q.farMin().at >= limit {
			return nil
		}
		e := q.far.pop()
		q.base = e.at
		return e
	}
	e := q.nearMin()
	if q.far.len() > 0 {
		if h := q.farMin(); h.at < e.at || (h.at == e.at && h.seq < e.seq) {
			if h.at >= limit {
				return nil
			}
			e = q.far.pop()
			q.base = e.at
			return e
		}
	}
	if e.at >= limit {
		return nil
	}
	b := int(e.at) & (ringWindow - 1)
	q.heads[b]++
	q.nearLen--
	if q.heads[b] == len(q.near[b]) {
		// Bucket drained: recycle its backing array for the tick that will
		// claim this slot ringWindow ticks from now.
		q.near[b] = q.near[b][:0]
		q.heads[b] = 0
		q.occ &^= 1 << b
	}
	q.base = e.at
	return e
}
