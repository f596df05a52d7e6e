package rt

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"distcount/internal/sim"
)

// farSink is a sink whose watchdog never reports within a test.
func farSink(t *testing.T) *Sink {
	t0 := time.Now()
	s := NewSink(func() int64 { return time.Since(t0).Nanoseconds() }, time.Hour)
	t.Cleanup(s.Close)
	return s
}

// TestSinkExactlyOnceInProducerOrder: completions put by several goroutines
// at once each reach the awaiting loop exactly once, and one producer's
// completions reach it in the order they were put.
func TestSinkExactlyOnceInProducerOrder(t *testing.T) {
	const producers, each = 8, 2000
	s := farSink(t)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				s.Put(p, sim.OpDone{ID: sim.OpID(i)})
			}
		}()
	}
	next := make([]sim.OpID, producers) // the last id seen per producer
	for got := 0; got < producers*each; {
		if !s.Await(-1, func(from int, d sim.OpDone) {
			got++
			if d.ID != next[from]+1 {
				t.Errorf("producer %d: completion %d after %d", from, d.ID, next[from])
			}
			next[from] = d.ID
		}) {
			t.Fatalf("stall reported with %d of %d completions delivered", got, producers*each)
		}
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) != 0 {
		t.Fatalf("%d completions left behind", len(s.queue))
	}
}

// TestSinkWakeTokenPerEdge: Put posts the wake token when the queue goes
// from empty to non-empty and at no other time, so a burst costs the loop
// one wake-up, and a stale token — the loop drained without parking — costs
// one empty look, not a lost completion.
func TestSinkWakeTokenPerEdge(t *testing.T) {
	s := farSink(t)
	s.Put(0, sim.OpDone{ID: 1})
	if len(s.wake) != 1 {
		t.Fatal("no token for the empty→non-empty edge")
	}
	<-s.wake
	s.Put(0, sim.OpDone{ID: 2})
	s.Put(0, sim.OpDone{ID: 3})
	if len(s.wake) != 0 {
		t.Fatal("token posted for a queue that was already non-empty")
	}
	var got []sim.OpID
	handle := func(_ int, d sim.OpDone) { got = append(got, d.ID) }
	if !s.Await(-1, handle) || fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("first batch %v, want [1 2 3]", got)
	}
	// A new edge while the loop is away leaves a token behind; the next batch
	// is taken without consuming it...
	s.Put(0, sim.OpDone{ID: 4})
	if !s.Await(-1, handle) || len(s.wake) != 1 {
		t.Fatalf("batch %v with %d tokens pending, want the stale token kept", got, len(s.wake))
	}
	// ...so the following wait wakes once for nothing and parks again until
	// the real completion.
	go func() {
		time.Sleep(2 * time.Millisecond)
		s.Put(0, sim.OpDone{ID: 5})
	}()
	if !s.Await(-1, handle) || fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("delivered %v, want [1 2 3 4 5]", got)
	}
}
