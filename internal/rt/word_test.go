package rt_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"distcount/internal/counter"
	"distcount/internal/rt"
	"distcount/internal/sim"
)

// A message's inline word (sim.Transport.SendWord) rides in the mailbox item
// with the payload, so it crosses workers and survives a duplicate like the
// rest of the message; a timer's (AfterWord, AfterDetached) rides in the
// clock's wakeup the same way.

// hop is a zero-size word kind: its word is the chain it belongs to in the
// upper half and the hops it has made in the lower (sim.Pair).
type hop struct{}

func (hop) Kind() string { return "hop" }

// hopChain passes each word on around the ring of n processors, one hop
// further, until it has made hops hops, and logs every delivery.
type hopChain struct {
	n, hops int
	mu      sync.Mutex
	got     map[int][]int // chain -> hop counts in delivery order
	at      map[int][]sim.ProcID
}

func (c *hopChain) Deliver(nw sim.Transport, msg sim.Message) {
	chain, made := sim.Unpair(msg.Word)
	c.mu.Lock()
	c.got[chain] = append(c.got[chain], made)
	c.at[chain] = append(c.at[chain], msg.To)
	c.mu.Unlock()
	if made < c.hops {
		nw.SendWord(msg.To%sim.ProcID(c.n)+1, hop{}, sim.Pair(chain, made+1))
	}
}

// TestWordAcrossWorkers: chains of word messages started by every processor
// at once, on a ring served by two workers, deliver every word intact — each
// chain's hop counts arrive in order at the processors the ring dictates.
// The chain ids sit in the word's upper half, past 2^31, so a word cut to
// 32 bits anywhere on the way shows.
func TestWordAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, hops = 6, 200
	c := &hopChain{n: n, hops: hops, got: map[int][]int{}, at: map[int][]sim.ProcID{}}
	chainOf := func(p sim.ProcID) int { return 1<<31 + int(p) }
	r := rt.New(timerMachine(n, c, func(nw counter.Transport, p sim.ProcID) {
		nw.SendWord(p%n+1, hop{}, sim.Pair(chainOf(p), 1))
	}))
	defer r.Close()
	done := make(chan sim.OpDone, n)
	r.OnOpDone(func(d sim.OpDone) { done <- d })
	for p := sim.ProcID(1); p <= n; p++ {
		r.Start(0, p)
	}
	for range n {
		select {
		case d := <-done:
			if d.Messages != hops {
				t.Errorf("op %d by %v: %d messages, want %d", d.ID, d.Initiator, d.Messages, hops)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("word chains never completed")
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := sim.ProcID(1); p <= n; p++ {
		chain := chainOf(p)
		want, wantAt := make([]int, hops), make([]sim.ProcID, hops)
		for i := range hops {
			want[i] = i + 1
			wantAt[i] = (p+sim.ProcID(i))%n + 1
		}
		if !slices.Equal(c.got[chain], want) || !slices.Equal(c.at[chain], wantAt) {
			t.Errorf("chain of %v: hops %v at %v, want 1..%d around the ring", p, c.got[chain], c.at[chain], hops)
		}
	}
	if len(c.got) != n {
		t.Errorf("%d chains delivered, want %d: a word was altered", len(c.got), n)
	}
}

// TestWordDuplicate: a duplicated word message delivers its word twice, and
// the duplicate is charged in full to the loads and to the operation.
func TestWordDuplicate(t *testing.T) {
	c := &hopChain{n: 2, hops: 1, got: map[int][]int{}, at: map[int][]sim.ProcID{}}
	r := rt.New(timerMachine(2, c, func(nw counter.Transport, _ sim.ProcID) {
		nw.SendWord(2, hop{}, sim.Pair(1<<32-1, 1))
	}), rt.WithFaults(sim.FaultPlan{DupNth: []sim.NthRule{{Proc: 1, Every: 1}}}))
	defer r.Close()
	done := make(chan sim.OpDone, 2)
	r.OnOpDone(func(d sim.OpDone) { done <- d })
	id := r.Start(0, 1)
	select {
	case d := <-done:
		if d.ID != id || d.Messages != 2 {
			t.Fatalf("completion %+v, want op %d with 2 messages", d, id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("duplicated word message never completed its operation")
	}
	c.mu.Lock()
	got := c.got[1<<32-1]
	c.mu.Unlock()
	if !slices.Equal(got, []int{1, 1}) {
		t.Fatalf("deliveries of the word: %v, want two copies of hop 1", got)
	}
	if sent, recv := r.Loads(nil, nil); sent[1] != 2 || recv[2] != 2 || r.MessagesTotal() != 2 {
		t.Fatalf("sent %v recv %v total %d, want the duplicate charged in full", sent, recv, r.MessagesTotal())
	}
	if fs := r.FaultStats(); fs.Duplicated != 1 {
		t.Fatalf("fault stats = %+v, want Duplicated 1", fs)
	}
}

// hopPark parks the first word message processor 2 receives (Adopt) and,
// when the next one arrives, returns the parked word to processor 1 inside
// the parked operation with SendAs; processor 1 logs what it gets.
type hopPark struct {
	parked chan struct{}
	tok    sim.OpToken
	word   int64
	got    chan int64
}

func (h *hopPark) Deliver(nw sim.Transport, msg sim.Message) {
	switch {
	case msg.To == 1:
		h.got <- msg.Word
	case !h.tok.Valid():
		h.tok, h.word = nw.Adopt(), msg.Word
		close(h.parked)
	default:
		nw.SendAs(h.tok, 1, hop{}, h.word)
		h.tok = sim.OpToken{}
	}
}

// TestWordSendAs: a word message sent inside an adopted continuation, from
// a worker other than the adopting operation's initiator's, carries its
// word and is charged to the adopted operation, which completes only when
// it lands.
func TestWordSendAs(t *testing.T) {
	h := &hopPark{parked: make(chan struct{}), got: make(chan int64, 1)}
	word := sim.Pair(1<<32-1, 1<<31)
	r := rt.New(timerMachine(3, h, func(nw counter.Transport, p sim.ProcID) {
		nw.SendWord(2, hop{}, word+int64(p-1))
	}))
	defer r.Close()
	done := make(chan sim.OpDone, 2)
	r.OnOpDone(func(d sim.OpDone) { done <- d })
	idA := r.Start(0, 1)
	select {
	case <-h.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the first word message never reached processor 2")
	}
	idB := r.Start(0, 3)
	msgs := map[sim.OpID]int64{}
	for range 2 {
		select {
		case d := <-done:
			msgs[d.ID] = d.Messages
		case <-time.After(10 * time.Second):
			t.Fatal("the parked operation never completed")
		}
	}
	if got := <-h.got; got != word {
		t.Fatalf("processor 1 got word %#x, want %#x", got, word)
	}
	if msgs[idA] != 2 || msgs[idB] != 1 {
		t.Fatalf("messages per op %v, want %d: 2 and %d: 1", msgs, idA, idB)
	}
}

// tick is a zero-size timer kind: its word is the chain it belongs to in the
// upper half and the wakeups it has made in the lower.
type tick struct{}

func (tick) Kind() string { return "tick" }

// detachedChain marks a chain of detached timers in its id.
const detachedChain = 1 << 30

// tickChain re-arms each delivered timer one tick later, one wakeup further,
// until it has made hops wakeups, and logs every wakeup; a detached chain
// reports its end on finished.
type tickChain struct {
	hops     int
	mu       sync.Mutex
	got      map[int][]int // chain -> wakeups in delivery order
	bad      []sim.Message // not local, not at its own processor, or in the wrong operation
	finished chan int
}

func (c *tickChain) Deliver(nw sim.Transport, msg sim.Message) {
	chain, made := sim.Unpair(msg.Word)
	detached := chain&detachedChain != 0
	c.mu.Lock()
	c.got[chain] = append(c.got[chain], made)
	if !msg.Local || msg.From != msg.To || detached != (nw.CurrentOp() == 0) {
		c.bad = append(c.bad, msg)
	}
	c.mu.Unlock()
	switch {
	case made < c.hops:
		nw.AfterWord(1, tick{}, sim.Pair(chain, made+1))
	case detached:
		c.finished <- chain
	}
}

// TestWordTimerAcrossWorkers: every processor of a runtime served by two
// workers starts one chain of attributed timers (AfterWord) and one of
// detached ones (AfterDetached); each timer's word crosses the clock
// goroutine and a worker intact, arrives local at its own processor, and the
// attributed chain keeps its operation open to the end while sending
// nothing. Chain ids sit past 2^31, so a word cut to 32 bits shows.
func TestWordTimerAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, hops = 6, 100
	c := &tickChain{hops: hops, got: map[int][]int{}, finished: make(chan int, n)}
	chainOf := func(p sim.ProcID) int { return 1<<31 + int(p) }
	r := rt.New(timerMachine(n, c, func(nw counter.Transport, p sim.ProcID) {
		nw.AfterWord(1, tick{}, sim.Pair(chainOf(p), 1))
		nw.AfterDetached(1, tick{}, sim.Pair(chainOf(p)|detachedChain, 1))
	}))
	defer r.Close()
	done := make(chan sim.OpDone, n)
	r.OnOpDone(func(d sim.OpDone) { done <- d })
	for p := sim.ProcID(1); p <= n; p++ {
		r.Start(0, p)
	}
	for range 2 * n {
		select {
		case d := <-done:
			if d.Messages != 0 {
				t.Errorf("op %d by %v: %d messages, want 0", d.ID, d.Initiator, d.Messages)
			}
		case <-c.finished:
		case <-time.After(10 * time.Second):
			t.Fatal("timer chains never completed")
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	want := make([]int, hops)
	for i := range want {
		want[i] = i + 1
	}
	for p := sim.ProcID(1); p <= n; p++ {
		for _, chain := range []int{chainOf(p), chainOf(p) | detachedChain} {
			if !slices.Equal(c.got[chain], want) {
				t.Errorf("chain %#x: wakeups %v, want 1..%d", chain, c.got[chain], hops)
			}
		}
	}
	if len(c.got) != 2*n {
		t.Errorf("%d chains delivered, want %d: a word was altered", len(c.got), 2*n)
	}
	if len(c.bad) != 0 {
		t.Errorf("misdelivered wakeups: %+v", c.bad)
	}
	if r.MessagesTotal() != 0 {
		t.Errorf("timers charged as %d messages", r.MessagesTotal())
	}
}
