package sim

import (
	"reflect"
	"testing"
)

// A message kind whose data fits in 64 bits travels as a zero-size kind
// value plus the message's inline word (SendWord). The tests below follow
// the word down the paths a message can take besides the plain one: a
// fault-injected duplicate, a latency model keyed on the kind, a send inside
// an adopted continuation (SendAs), a timer (AfterWord, AfterDetached), and
// the send itself, which must box nothing. The Freeze re-entry and the
// service-slot deferral are in inplace_test.go's tables.

// wordKind is a zero-size word kind that sizes itself from its word.
type wordKind struct{}

func (wordKind) Kind() string     { return "word" }
func (wordKind) Bits(w int64) int { return BitsFor(int(w)) }

// wordLog records every delivery.
type wordLog struct{ got []seen }

func (l *wordLog) Deliver(nw Transport, msg Message) {
	l.got = append(l.got, seen{nw.Now(), nw.CurrentOp(), msg})
}

// sendWords is an operation start that sends one word message to processor
// 2 per word.
func sendWords(words ...int64) func(Transport, ProcID) {
	return func(nw Transport, _ ProcID) {
		for _, w := range words {
			nw.SendWord(2, wordKind{}, w)
		}
	}
}

func wordMsg(w int64) Message { return Message{From: 1, To: 2, Payload: wordKind{}, Word: w} }

// TestWordDuplicateDeliversTwiceChargedInFull: a duplicated word message
// delivers its word twice, and the duplicate is charged in full — loads,
// message and bit totals and the operation's count — while the largest
// message stays the one copy's size.
func TestWordDuplicateDeliversTwiceChargedInFull(t *testing.T) {
	log := &wordLog{}
	nw := New(2, log, WithFaults(FaultPlan{DupNth: []NthRule{{Proc: 1, Every: 1}}}))
	done := recordDone(t, nw)
	id := nw.StartOp(1, sendWords(1000))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	want := []seen{{1, id, wordMsg(1000)}, {1, id, wordMsg(1000)}}
	if !reflect.DeepEqual(log.got, want) {
		t.Fatalf("deliveries:\n got %+v\nwant %+v", log.got, want)
	}
	bits := BitsFor(1000)
	if nw.MessagesTotal() != 2 || nw.BitsTotal() != int64(2*bits) || nw.MaxMessageBits() != bits {
		t.Fatalf("messages %d, bits %d, max %d; want 2, %d, %d",
			nw.MessagesTotal(), nw.BitsTotal(), nw.MaxMessageBits(), 2*bits, bits)
	}
	if nw.Load(1) != 2 || nw.Load(2) != 2 {
		t.Fatalf("loads %d and %d, want 2 and 2", nw.Load(1), nw.Load(2))
	}
	if d, ok := done[id]; !ok || d.Messages != 2 {
		t.Fatalf("completion %+v (ok %v), want 2 messages", d, ok)
	}
	if fs := nw.FaultStats(); fs.Duplicated != 1 {
		t.Fatalf("duplicated = %d, want 1", fs.Duplicated)
	}
}

// TestWordStallKindLatency: StallKindLatency stalls a word message by its
// kind's name, like a boxed one, and the stalled message keeps its word.
func TestWordStallKindLatency(t *testing.T) {
	log := &wordLog{}
	nw := New(2, log, WithLatency(NewStallKindLatency(50, map[string][]int{"word": {1}})))
	id := nw.StartOp(1, sendWords(7, 8, 9))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	want := []seen{{1, id, wordMsg(7)}, {1, id, wordMsg(9)}, {50, id, wordMsg(8)}}
	if !reflect.DeepEqual(log.got, want) {
		t.Fatalf("deliveries:\n got %+v\nwant %+v", log.got, want)
	}
}

// wordPark parks the first word message processor 2 receives (Adopt) and,
// when the next one arrives, returns the parked word to processor 1 inside
// the parked operation with SendAs.
type wordPark struct {
	wordLog
	tok  OpToken
	word int64
}

func (wp *wordPark) Deliver(nw Transport, msg Message) {
	switch {
	case msg.To == 1:
		wp.wordLog.Deliver(nw, msg)
	case !wp.tok.Valid():
		wp.tok, wp.word = nw.Adopt(), msg.Word
	default:
		nw.SendAs(wp.tok, 1, wordKind{}, wp.word)
		wp.tok = OpToken{}
	}
}

// TestWordSendAs: a word message sent inside an adopted continuation
// carries its word, is attributed to the adopted operation, keeps it open
// until it lands and is sized from its word.
func TestWordSendAs(t *testing.T) {
	wp := &wordPark{}
	nw := New(2, wp)
	done := recordDone(t, nw)
	idA := nw.ScheduleOp(0, 1, sendWords(1<<40))
	idB := nw.ScheduleOp(3, 1, sendWords(7))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	want := []seen{{5, idA, Message{From: 2, To: 1, Payload: wordKind{}, Word: 1 << 40}}}
	if !reflect.DeepEqual(wp.got, want) {
		t.Fatalf("deliveries:\n got %+v\nwant %+v", wp.got, want)
	}
	if a, b := done[idA], done[idB]; a.Messages != 2 || b.Messages != 1 {
		t.Fatalf("messages per op %d and %d, want 2 and 1", a.Messages, b.Messages)
	}
	if got := nw.MaxMessageBits(); got != BitsFor(1<<40) {
		t.Fatalf("MaxMessageBits = %d, want %d", got, BitsFor(1<<40))
	}
}

// wordRelay passes each operation's word on to the next processor, one
// larger, until it reaches processor hops+1.
type wordRelay struct{ hops int }

func (r *wordRelay) Deliver(nw Transport, msg Message) {
	if h := int(msg.To); h <= r.hops {
		nw.SendWord(ProcID(h+1), wordKind{}, msg.Word+1)
	}
}

var startWordRelay = func(nw Transport, _ ProcID) { nw.SendWord(2, wordKind{}, 1<<40) }

// TestWordSendAllocFree: a word message boxes nothing whatever its word —
// the values here are far past the small integers the runtime boxes for
// free — so the start→send→deliver cycle of word messages allocates
// exactly nothing, sized accounting included.
func TestWordSendAllocFree(t *testing.T) {
	nw := New(8, &wordRelay{hops: 3})
	run := func() {
		nw.StartOp(1, startWordRelay)
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("word Send/Step cycle allocates %.2f objects per op, want exactly 0", avg)
	}
	if got := nw.MaxMessageBits(); got != BitsFor(1<<40+2) {
		t.Fatalf("MaxMessageBits = %d, want %d", got, BitsFor(1<<40+2))
	}
}

// startTimers is an operation start that sets one attributed timer with
// word wOp after 3 ticks and one detached timer with word wDet after 5.
func startTimers(wOp, wDet int64) func(Transport, ProcID) {
	return func(nw Transport, _ ProcID) {
		nw.AfterWord(3, wordKind{}, wOp)
		nw.AfterDetached(5, wordKind{}, wDet)
	}
}

// TestWordTimer: a timer's word (AfterWord, AfterDetached) reaches its
// wakeup, delivered with Local set at its own processor, the attributed one
// inside its operation and the detached one in none; neither is a network
// message. A crash still cancels both, words and all.
func TestWordTimer(t *testing.T) {
	wOp, wDet := int64(1<<40), Pair(1<<32-1, 7)
	timer := func(at int64, op OpID, w int64) seen {
		return seen{at, op, Message{From: 1, To: 1, Payload: wordKind{}, Word: w, Local: true}}
	}
	t.Run("delivered", func(t *testing.T) {
		log := &wordLog{}
		nw := New(2, log)
		done := recordDone(t, nw)
		id := nw.StartOp(1, startTimers(wOp, wDet))
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		want := []seen{timer(3, id, wOp), timer(5, 0, wDet)}
		if !reflect.DeepEqual(log.got, want) {
			t.Fatalf("deliveries:\n got %+v\nwant %+v", log.got, want)
		}
		if d, ok := done[id]; !ok || d.Messages != 0 || d.End != 3 {
			t.Fatalf("completion %+v (ok %v), want 0 messages, ending at 3", d, ok)
		}
		if nw.MessagesTotal() != 0 || nw.Load(1) != 0 {
			t.Fatalf("timers charged as messages: total %d, load %d", nw.MessagesTotal(), nw.Load(1))
		}
	})
	t.Run("crash", func(t *testing.T) {
		log := &wordLog{}
		nw := New(2, log, WithFaults(FaultPlan{
			Crashes: []Downtime{{Proc: 1, From: 2, To: 100}},
			Freeze:  true,
		}))
		done := recordDone(t, nw)
		id := nw.StartOp(1, startTimers(wOp, wDet))
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		if len(log.got) != 0 {
			t.Fatalf("timers at a crashed processor fired: %+v", log.got)
		}
		if fs := nw.FaultStats(); fs.TimersCancelled != 2 || fs.CrashDeferred != 0 {
			t.Fatalf("fault stats = %+v, want two cancelled timers", fs)
		}
		requireLost(t, nw, done, id)
	})
}

// TestPairRoundTrip: Pair packs two fields of [0, 2^32) into one word and
// Unpair returns them, the upper half's top bit included; a field out of
// range panics instead of corrupting its neighbour.
func TestPairRoundTrip(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 2}, {0, 1<<32 - 1}, {1<<32 - 1, 0}, {1<<32 - 1, 1<<32 - 1}, {1 << 31, 12345}} {
		if hi, lo := Unpair(Pair(c[0], c[1])); hi != c[0] || lo != c[1] {
			t.Errorf("Unpair(Pair(%d, %d)) = %d, %d", c[0], c[1], hi, lo)
		}
	}
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {1 << 32, 0}, {0, 1 << 32}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pair(%d, %d) did not panic", c[0], c[1])
				}
			}()
			Pair(c[0], c[1])
		}()
	}
}
