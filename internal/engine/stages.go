package engine

import (
	"distcount/internal/verify"
	"distcount/internal/workload"
)

// A run is three stages on three goroutines, joined by two rings:
//
//	producer ──requests──▶ driver ──completions──▶ bookkeeper
//
// The driver is the only stage that touches the service: it admits, starts,
// steps and waits, reads each completion's value, and keeps whatever feeds
// back into the schedule or reads live service state (the open loop's
// records and queues, series samples, the warm-up load snapshot, the
// frontier). The producer owns the generator and fills request batches a
// batch ahead of admission; the bookkeeper applies completion records, in
// completion order, to the in-flight sweep, the latency digests, the per-key
// sums and the verifier. Neither side stage reads anything the other stages
// write, and both of the bookkeeper's structures report the whole history
// whenever their frontier advances, so no result depends on how the three
// goroutines are scheduled.

// Ring geometry. A side stage may run ringBatches-1 batches ahead of (or
// behind) the driver before one of them waits, which absorbs a stage's
// pauses on a shared machine; a batch amortizes one hand-off over batchLen
// records. At the same 48 KB per run (the rings are a run's fixed cost),
// svc_keyed_skew measured 2×256 9 % slower than 4×128, 8×64 and 16×32
// each about 6 % faster than the geometry before, and 32×16 no faster.
const (
	ringBatches = 16
	batchLen    = 32
)

// ring is a fixed set of batches cycling between one writer and one reader
// goroutine: the writer fills a free batch and sends it full, the reader
// drains it and hands it back. All batches share one allocation made by
// newRing, so a run allocates nothing per batch; and since every batch fits
// in either channel, only waiting for a free batch or a full one blocks.
type ring[T any] struct {
	full, free chan []T
	quit       chan struct{} // closed by the reader when it stops taking batches
}

func newRing[T any]() *ring[T] {
	r := &ring[T]{
		full: make(chan []T, ringBatches),
		free: make(chan []T, ringBatches),
		quit: make(chan struct{}),
	}
	slab := make([]T, ringBatches*batchLen)
	for i := range ringBatches {
		r.free <- slab[i*batchLen : i*batchLen : (i+1)*batchLen]
	}
	return r
}

// take returns an empty batch to fill; false once the reader has quit.
func (r *ring[T]) take() ([]T, bool) {
	select {
	case b := <-r.free:
		return b[:0], true
	case <-r.quit:
		return nil, false
	}
}

// send hands a filled batch to the reader.
func (r *ring[T]) send(b []T) { r.full <- b }

// close tells the reader that no batch follows those sent.
func (r *ring[T]) close() { close(r.full) }

// next returns the next full batch; false once the writer has closed the
// ring and every batch sent is drained.
func (r *ring[T]) next() ([]T, bool) {
	b, ok := <-r.full
	return b, ok
}

// recycle hands a drained batch back to the writer.
func (r *ring[T]) recycle(b []T) { r.free <- b }

// stop releases a writer waiting for a free batch: the reader takes no
// more. The reader calls it once, on its way out.
func (r *ring[T]) stop() { close(r.quit) }

// stage is a side stage's goroutine. A panic there is caught and handed to
// whoever joins it, so it surfaces on the goroutine that called the engine.
type stage struct {
	done     chan struct{}
	panicked any
}

func goStage(f func()) *stage {
	s := &stage{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer func() { s.panicked = recover() }()
		f()
	}()
	return s
}

// wait waits for the stage to return and hands over its panic value, once
// (nil when it returned normally).
func (s *stage) wait() any {
	<-s.done
	p := s.panicked
	s.panicked = nil
	return p
}

// produce is the producer stage: it fills request batches from the
// generator until the generator is exhausted or the driver quits.
func produce(gen workload.Generator, reqs *ring[workload.Request]) {
	defer reqs.close()
	for {
		b, ok := reqs.take()
		if !ok {
			return
		}
		for len(b) < cap(b) {
			req, more := gen.Next()
			if !more {
				if len(b) > 0 {
					reqs.send(b)
				}
				return
			}
			b = append(b, req)
		}
		reqs.send(b)
	}
}

// outcome is one completion as the driver hands it to the bookkeeper.
type outcome struct {
	tv             verify.TimedValue // the operation's id, value and service interval
	arrival, start int64             // its scenario arrival and injection time
	// frontier, when nonzero, bounds the start of every operation recorded
	// after this one: the driver stamps one every frontierEvery records.
	frontier int64
	at       verify.Placement // the shard, key and epoch it ran at
	ok       bool             // the service had a value for it
}

// keep is the bookkeeper stage: it applies every completion record to m
// until the driver closes the ring, and quits the ring on the way out so a
// driver waiting for a free batch is released if m panics.
func keep(m *metrics, books *ring[outcome]) {
	defer books.stop()
	for {
		b, ok := books.next()
		if !ok {
			return
		}
		for i := range b {
			m.add(&b[i])
		}
		books.recycle(b)
	}
}
