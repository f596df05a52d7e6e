package sim

import (
	"fmt"
	"math"
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
//
// A quarter of the pops carry a limit (RunUntil's pop) just below, at or
// just above the head's time, or anywhere up to past the ring window: the
// queue must pop exactly when the reference head is before the limit and
// otherwise return nil and change nothing. The dense runs keep every tick of
// the ring occupied; the sparse ones let the far heap's head come before the
// ring's (about 1 800 limited pops see it). Popping the event at the limit,
// or comparing the limit against the ring's head when the far heap holds
// the earlier event, fails here.
func TestEventQueueMatchesHeapReference(t *testing.T) {
	for _, run := range []struct {
		sparse bool
		seed   uint64
	}{{false, 1}, {false, 2}, {false, 3}, {false, 42}, {false, 1997}, {true, 1}, {true, 2}, {true, 3}} {
		seed, tag := run.seed, fmt.Sprintf("seed %d (sparse %v)", run.seed, run.sparse)
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
		// popBoth pops both structures, the queue with the given limit; ok
		// is false when the reference head is not before it, and then the
		// queue must refuse too.
		popBoth := func(limit int64) (e event, ok bool) {
			if q.len() != ref.len() {
				t.Fatalf("%s: queue len %d != reference len %d", tag, q.len(), ref.len())
			}
			if at, ok := q.peekAt(); !ok || at != ref.evs[0].at {
				t.Fatalf("%s: peekAt = (%d, %v), reference head at %d", tag, at, ok, ref.evs[0].at)
			}
			head := ref.evs[0].at
			popped := q.pop(limit)
			if head >= limit {
				if popped != nil {
					t.Fatalf("%s: pop(%d) returned (at %d, seq %d) with the head at %d",
						tag, limit, popped.at, popped.seq, head)
				}
				return event{}, false
			}
			if popped == nil {
				t.Fatalf("%s: pop(%d) returned nil with the head at %d", tag, limit, head)
			}
			got, want := *popped, *ref.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("%s: pop = (at %d, seq %d), reference (at %d, seq %d)",
					tag, got.at, got.seq, want.at, want.seq)
			}
			// The narrow fields ride along unchanged through both structures.
			if got.from != want.from || got.to != want.to || got.parent != want.parent ||
				got.local != want.local || got.reserved != want.reserved || got.op != want.op {
				t.Fatalf("%s: event (at %d, seq %d) came back altered: %+v vs reference %+v",
					tag, got.at, got.seq, got, want)
			}
			return got, true
		}
		// pickLimit draws a pop's limit: none three times in four.
		pickLimit := func() int64 {
			if r.Uint64()%4 != 0 {
				return math.MaxInt64
			}
			head := ref.evs[0].at
			switch r.Uint64() % 4 {
			case 0:
				return head
			case 1:
				return head + 1
			case 2:
				return max(head-1, 0)
			}
			return now + int64(r.Uint64()%1000)
		}
		for i := 0; i < 20000; i++ {
			if q.len() == 0 || (!run.sparse && r.Uint64()%4 != 0) || (run.sparse && r.Uint64()%2 == 0) {
				// Fresh push with a strictly increasing seq: usually inside
				// the ring window, sometimes a far timer for the heap. A
				// sparse run pushes as often as it pops and half its pushes
				// go far, so the ring thins out and the window moves up to
				// far events while the ring holds only later ones: the far
				// heap's head is then the earlier one.
				var d int64
				if r.Uint64()%8 == 0 || (run.sparse && r.Uint64()%2 == 0) {
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
			e, ok := popBoth(pickLimit())
			if !ok {
				continue
			}
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
		// The drain, with the queue thinning out, is where the far heap's
		// head overtakes the ring's: the window has moved up to a far event
		// while the ring holds only later ones.
		for q.len() > 0 {
			if e, ok := popBoth(pickLimit()); ok {
				now = e.at
			}
		}
		if q.pop(math.MaxInt64) != nil {
			t.Fatalf("%s: pop on an empty queue returned an event", tag)
		}
		if ref.len() != 0 {
			t.Fatalf("%s: reference still holds %d events after drain", tag, ref.len())
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
		got = append(got, q.pop(math.MaxInt64).seq)
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
	if e := q.pop(math.MaxInt64); e.seq != 2 {
		t.Fatalf("first pop seq %d, want 2", e.seq)
	}
	// Window now starts at 2; 499 is still far, pushes land in the ring only
	// within [2, 66).
	q.push(&event{at: 65, seq: 4})
	order := []uint64{4, 3, 1}
	for _, want := range order {
		if e := q.pop(math.MaxInt64); e.seq != want {
			t.Fatalf("pop seq %d, want %d", e.seq, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after drain: %d", q.len())
	}
}
