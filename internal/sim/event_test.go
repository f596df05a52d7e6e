package sim

import (
	"testing"
	"unsafe"

	"distcount/internal/rng"
)

// push enqueues a copy of *e through slot, the queue's one enqueue
// primitive: the tests build their events whole where the simulator writes
// them in place.
func (q *eventQueue) push(e *event) { *q.slot(e.at, e.seq) = *e }

// push is the reference heap's enqueue: grow, fill, sift in.
func (h *eventHeap) push(e *event) {
	*h.grow() = *e
	h.up(h.len() - 1)
}

// TestEventFitsOneCacheLine pins the packed layout: a send writes one event
// into its slot and a delivery reads it from there, so growing the struct
// past a cache line is a per-message cost on every protocol.
func TestEventFitsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 64 {
		t.Fatalf("sizeof(event) = %d bytes, want <= 64", size)
	}
}

// TestEventQueueMatchesHeapReference drives the bucket-ring queue and a
// pure binary heap with the same randomized operation stream — fresh pushes
// near and far, interleaved pops, and service-slot-style re-pushes that keep
// their original seq — and requires identical (at, seq) pop order
// throughout. This is the equivalence property the ring's O(1) fast path
// rests on: callers must not be able to distinguish it from the heap. The
// odd seeds start from New's carved queue, whose buckets share one slab: a
// bucket outgrowing its share must leave its neighbours' events intact.
func TestEventQueueMatchesHeapReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 1997} {
		var (
			r   = rng.New(seed)
			q   eventQueue
			ref eventHeap
			seq uint64
			now int64
		)
		if seed%2 == 1 {
			q.carve()
		}
		push := func(e event) {
			q.push(&e)
			ref.push(&e)
		}
		popBoth := func() event {
			if q.len() != ref.len() {
				t.Fatalf("seed %d: queue len %d != reference len %d", seed, q.len(), ref.len())
			}
			if at, ok := q.peekAt(); !ok || at != ref.evs[0].at {
				t.Fatalf("seed %d: peekAt = (%d, %v), reference head at %d", seed, at, ok, ref.evs[0].at)
			}
			got, want := *q.pop(), *ref.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d: pop = (at %d, seq %d), reference (at %d, seq %d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
			// The narrow fields ride along unchanged through both structures.
			if got.from != want.from || got.to != want.to || got.parent != want.parent ||
				got.local != want.local || got.reserved != want.reserved || got.op != want.op {
				t.Fatalf("seed %d: event (at %d, seq %d) came back altered: %+v vs reference %+v",
					seed, got.at, got.seq, got, want)
			}
			return got
		}
		for i := 0; i < 20000; i++ {
			if q.len() == 0 || r.Uint64()%4 != 0 {
				// Fresh push with a strictly increasing seq: usually inside
				// the ring window, sometimes a far timer for the heap.
				var d int64
				if r.Uint64()%8 == 0 {
					d = int64(r.Uint64() % 1000)
				} else {
					d = int64(r.Uint64() % 64)
				}
				seq++
				bits := r.Uint64()
				push(event{
					at: now + d, seq: seq, op: OpID(seq),
					from: int32(bits >> 40), to: -int32(bits >> 41), parent: int32(bits),
					local: bits&1 != 0,
				})
				continue
			}
			e := popBoth()
			now = e.at
			if r.Uint64()%8 == 0 {
				// Service-slot deferral: the popped event re-enters at a later
				// tick with its ORIGINAL seq — the one push pattern that is
				// not append-in-seq-order within a bucket.
				e.at = now + int64(r.Uint64()%32)
				e.reserved = true
				push(e)
			}
		}
		for q.len() > 0 {
			now = popBoth().at
		}
		if ref.len() != 0 {
			t.Fatalf("seed %d: reference still holds %d events after drain", seed, ref.len())
		}
	}
}

// TestEventQueueSameTickSeqOrder pins the tie-break within one tick: events
// at the same timestamp pop in push (seq) order even when a kept-seq
// re-entry lands behind newer pushes.
func TestEventQueueSameTickSeqOrder(t *testing.T) {
	var q eventQueue
	q.push(&event{at: 5, seq: 10})
	q.push(&event{at: 5, seq: 12})
	q.push(&event{at: 5, seq: 11}) // binary-insert path: out-of-order seq
	q.push(&event{at: 3, seq: 13})
	var got []uint64
	for q.len() > 0 {
		got = append(got, q.pop().seq)
	}
	want := []uint64{13, 10, 11, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestEventQueueFarToNearMigration checks that heap events become poppable
// as the window advances past them (the heap is consulted on every pop, so
// no migration step exists to get wrong — but the ordering across the two
// structures must hold).
func TestEventQueueFarToNearMigration(t *testing.T) {
	var q eventQueue
	q.push(&event{at: 500, seq: 1}) // far: beyond the 64-tick window of base 0
	q.push(&event{at: 2, seq: 2})
	q.push(&event{at: 499, seq: 3}) // also far
	if e := q.pop(); e.seq != 2 {
		t.Fatalf("first pop seq %d, want 2", e.seq)
	}
	// Window now starts at 2; 499 is still far, pushes land in the ring only
	// within [2, 66).
	q.push(&event{at: 65, seq: 4})
	order := []uint64{4, 3, 1}
	for _, want := range order {
		if e := q.pop(); e.seq != want {
			t.Fatalf("pop seq %d, want %d", e.seq, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after drain: %d", q.len())
	}
}

// TestEventQueueClone verifies clones are deep: popping from the clone must
// not disturb the original.
func TestEventQueueClone(t *testing.T) {
	var q eventQueue
	for i := 1; i <= 10; i++ {
		q.push(&event{at: int64(i % 7), seq: uint64(i)})
	}
	q.push(&event{at: 200, seq: 11})
	cl := q.clone()
	for cl.len() > 0 {
		cl.pop()
	}
	if q.len() != 11 {
		t.Fatalf("original queue drained by clone pops: len %d, want 11", q.len())
	}
	prevAt, prevSeq := int64(-1), uint64(0)
	for q.len() > 0 {
		e := q.pop()
		if e.at < prevAt || (e.at == prevAt && e.seq < prevSeq) {
			t.Fatalf("original out of order after clone: (%d,%d) after (%d,%d)", e.at, e.seq, prevAt, prevSeq)
		}
		prevAt, prevSeq = e.at, e.seq
	}
}
