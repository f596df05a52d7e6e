package sim

import (
	"reflect"
	"testing"
)

// An event lives in its queue slot from enqueue to delivery, and pop hands
// Step a pointer to that slot. An enqueue made while the event is being
// delivered may reuse the slot — the bucket a tick's last event drained is
// refilled from index 0, and the far heap's popped event sits in the slot
// its next enqueue takes — so Step must read the delivery out before any
// callback runs. These tests deliver events whose slots are reused from
// their own callbacks and compare everything a caller sees with the run
// worked out by hand from the (at, seq) rule.

// step is a test payload: its tag names the action a delivery runs.
type step string

func (s step) Kind() string { return string(s) }

// seen is one delivery as the protocol saw it: the time, the operation it
// ran under and the message (an operation start shows as a message from
// the initiator to itself carrying the start's tag).
type seen struct {
	at  int64
	op  OpID
	msg Message
}

// scripted records every delivery and start, then runs the action the test
// attached to the tag. The network is the test's, so an action may also
// call ScheduleOp, which is not on the Transport surface.
type scripted struct {
	nw   *Network
	got  []seen
	acts map[step]func(nw Transport)
}

func (s *scripted) Deliver(nw Transport, msg Message) {
	s.got = append(s.got, seen{nw.Now(), nw.CurrentOp(), msg})
	tag, _ := msg.Payload.(step) // a clobbered payload shows in got, not as a panic
	if act := s.acts[tag]; act != nil {
		act(nw)
	}
}

// start returns the start callback of an operation tagged name.
func (s *scripted) start(name step) func(Transport, ProcID) {
	return func(nw Transport, p ProcID) {
		s.Deliver(nw, Message{From: p, To: p, Payload: name})
	}
}

// inPlaceRun is what one scripted run leaves for the test to compare.
type inPlaceRun struct {
	seen []seen
	dag  []Delivery
	done []OpDone
}

// runScripted builds a 4-processor network with opts, lets setup install
// the actions and schedule the first operations, runs it to quiescence and
// returns what it saw. hook, when set, runs inside each OnDeliver record.
func runScripted(t *testing.T, setup func(s *scripted), hook func(s *scripted, d Delivery), opts ...Option) inPlaceRun {
	t.Helper()
	s := &scripted{acts: map[step]func(Transport){}}
	s.nw = New(4, s, opts...)
	var out inPlaceRun
	s.nw.OnDeliver(func(d Delivery) {
		out.dag = append(out.dag, d)
		if hook != nil {
			hook(s, d)
		}
	})
	s.nw.OnOpDone(func(d OpDone) { out.done = append(out.done, d) })
	setup(s)
	if err := s.nw.Run(); err != nil {
		t.Fatal(err)
	}
	out.seen = s.got
	return out
}

func (r inPlaceRun) check(t *testing.T, want inPlaceRun) {
	t.Helper()
	if !reflect.DeepEqual(r.seen, want.seen) {
		t.Errorf("deliveries, in order:\n got %+v\nwant %+v", r.seen, want.seen)
	}
	if !reflect.DeepEqual(r.dag, want.dag) {
		t.Errorf("OnDeliver records:\n got %+v\nwant %+v", r.dag, want.dag)
	}
	if !reflect.DeepEqual(r.done, want.done) {
		t.Errorf("completions:\n got %+v\nwant %+v", r.done, want.done)
	}
}

// msg and timer shorten the expected tables.
func msg(from, to ProcID, tag step) Message { return Message{From: from, To: to, Payload: tag} }

func timer(p ProcID, tag step) Message { return Message{From: p, To: p, Payload: tag, Local: true} }

// TestInPlaceSameTickReuse: a tick's last event drains its bucket, and the
// enqueues its delivery makes at the same tick refill the bucket from index
// 0 — over the slot it was popped from. a1 is alone at tick 1, and its
// OnDeliver hook schedules op B at Now() into a1's slot before a1's Deliver
// runs; the timer a-timer is tick 1's last event when it pops from index 1,
// and its callback's After(0) and ScheduleOp(Now()) fill indexes 0 and 1.
func TestInPlaceSameTickReuse(t *testing.T) {
	got := runScripted(t, func(s *scripted) {
		s.acts["A"] = func(nw Transport) { nw.Send(2, step("a1")) }
		s.acts["a1"] = func(nw Transport) {
			nw.After(0, step("a-timer"))
			nw.Send(1, step("a2"))
		}
		s.acts["B"] = func(nw Transport) { nw.Send(4, step("b1")) }
		s.acts["a-timer"] = func(nw Transport) {
			nw.After(0, step("a-last"))
			s.nw.ScheduleOp(nw.Now(), 4, s.start("C"))
		}
		s.acts["C"] = func(nw Transport) { nw.Send(1, step("c1")) }
		s.nw.StartOp(1, s.start("A"))
	}, func(s *scripted, d Delivery) {
		if d.Op == 1 && d.Node == 1 { // a1 at processor 2
			s.nw.ScheduleOp(s.nw.Now(), 3, s.start("B"))
		}
	})
	got.check(t, inPlaceRun{
		seen: []seen{
			{0, 1, msg(1, 1, "A")},
			{1, 1, msg(1, 2, "a1")},
			{1, 2, msg(3, 3, "B")},
			{1, 1, timer(2, "a-timer")},
			{1, 1, timer(2, "a-last")},
			{1, 3, msg(4, 4, "C")},
			{2, 1, msg(2, 1, "a2")},
			{2, 2, msg(3, 4, "b1")},
			{2, 3, msg(4, 1, "c1")},
		},
		dag: []Delivery{
			{Op: 1, Proc: 1, Node: 0, Parent: -1},
			{Op: 1, Proc: 2, Node: 1, Parent: 0},
			{Op: 2, Proc: 3, Node: 0, Parent: -1},
			{Op: 3, Proc: 4, Node: 0, Parent: -1},
			{Op: 1, Proc: 1, Node: 2, Parent: 1},
			{Op: 2, Proc: 4, Node: 1, Parent: 0},
			{Op: 3, Proc: 1, Node: 1, Parent: 0},
		},
		done: []OpDone{
			{ID: 1, Initiator: 1, Start: 0, End: 2, Messages: 2},
			{ID: 2, Initiator: 3, Start: 1, End: 2, Messages: 1},
			{ID: 3, Initiator: 4, Start: 1, End: 2, Messages: 1},
		},
	})
}

// TestInPlaceFarReuse: a far-heap event (delay > ringWindow) pops into the
// slot just past the shrunken heap, and the far enqueue its callback makes
// next takes that same slot; a second far enqueue must sift the first in
// before it stages its own.
func TestInPlaceFarReuse(t *testing.T) {
	got := runScripted(t, func(s *scripted) {
		s.acts["F"] = func(nw Transport) {
			nw.After(100, step("far1"))
			nw.Send(2, step("f1"))
		}
		s.acts["far1"] = func(nw Transport) {
			nw.After(150, step("far2"))
			nw.Send(3, step("f2"))
			s.nw.ScheduleOp(nw.Now()+70, 2, s.start("G"))
		}
		s.acts["G"] = func(nw Transport) { nw.Send(1, step("g1")) }
		s.nw.StartOp(1, s.start("F"))
	}, nil)
	got.check(t, inPlaceRun{
		seen: []seen{
			{0, 1, msg(1, 1, "F")},
			{1, 1, msg(1, 2, "f1")},
			{100, 1, timer(1, "far1")},
			{101, 1, msg(1, 3, "f2")},
			{170, 2, msg(2, 2, "G")},
			{171, 2, msg(2, 1, "g1")},
			{250, 1, timer(1, "far2")},
		},
		dag: []Delivery{
			{Op: 1, Proc: 1, Node: 0, Parent: -1},
			{Op: 1, Proc: 2, Node: 1, Parent: 0},
			{Op: 1, Proc: 3, Node: 2, Parent: 0}, // sent from the timer, at the node that set it
			{Op: 2, Proc: 2, Node: 0, Parent: -1},
			{Op: 2, Proc: 1, Node: 1, Parent: 0},
		},
		done: []OpDone{
			{ID: 2, Initiator: 2, Start: 170, End: 171, Messages: 1},
			{ID: 1, Initiator: 1, Start: 0, End: 250, Messages: 2},
		},
	})
}

// TestInPlaceServiceRequeue: under arrival booking (a Freeze crash window
// turns booking at send off) a message that finds its receiver busy
// re-enters the queue from the slot it popped from, and so does a message
// to a frozen processor at its recovery. Service time 100 sends both
// re-entries past the ring: d2 moves from a ring bucket to the far heap,
// z2 — popped from the far heap — re-enters in its own slot.
func TestInPlaceServiceRequeue(t *testing.T) {
	plan := FaultPlan{Crashes: []Downtime{{Proc: 4, From: 0, To: 200}}, Freeze: true}
	var nw *Network
	got := runScripted(t, func(s *scripted) {
		nw = s.nw
		s.acts["S"] = func(nw Transport) {
			nw.Send(3, step("d1"))
			nw.Send(3, step("d2"))
			nw.Send(4, step("z1"))
			nw.Send(4, step("z2"))
		}
		s.nw.StartOp(1, s.start("S"))
	}, nil, WithServiceTime(100), WithFaults(plan))
	got.check(t, inPlaceRun{
		seen: []seen{
			{0, 1, msg(1, 1, "S")},
			{1, 1, msg(1, 3, "d1")},
			{101, 1, msg(1, 3, "d2")}, // deferred behind d1's slot
			{200, 1, msg(1, 4, "z1")}, // frozen until recovery
			{300, 1, msg(1, 4, "z2")}, // frozen, then deferred behind z1
		},
		dag: []Delivery{
			{Op: 1, Proc: 1, Node: 0, Parent: -1},
			{Op: 1, Proc: 3, Node: 1, Parent: 0},
			{Op: 1, Proc: 3, Node: 2, Parent: 0},
			{Op: 1, Proc: 4, Node: 3, Parent: 0},
			{Op: 1, Proc: 4, Node: 4, Parent: 0},
		},
		done: []OpDone{{ID: 1, Initiator: 1, Start: 0, End: 300, Messages: 4}},
	})
	if fs := nw.FaultStats(); fs.CrashDeferred != 2 {
		t.Errorf("crash deferrals = %d, want 2", fs.CrashDeferred)
	}
}
