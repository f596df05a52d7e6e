package sim

import (
	"testing"
)

// expectPanic asserts that fn panics; the fault-plan contract is that
// malformed plans are programming errors.
func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

func TestFaultPlanValidation(t *testing.T) {
	for name, plan := range map[string]FaultPlan{
		"loss >= 1":       {Loss: 1.0},
		"loss < 0":        {Loss: -0.1},
		"dup >= 1":        {Dup: 1.5},
		"nth every 0":     {DropNth: []NthRule{{Proc: 1, Every: 0}}},
		"dupnth every -1": {DupNth: []NthRule{{Proc: 1, Every: -1}}},
		"empty downtime":  {Crashes: []Downtime{{Proc: 1, From: 100, To: 100}}},
		"negative from":   {Crashes: []Downtime{{Proc: 1, From: -1}}},
		"churn down > period": {Churn: &ChurnSpec{
			Procs: 1, Period: 10, Down: 11}},
		"churn zero procs": {Churn: &ChurnSpec{Procs: 0, Period: 10, Down: 5}},
	} {
		expectPanic(t, name, func() { NewFaultInjector(4, plan) })
	}
}

func TestFaultInjectorChurnClampedToN(t *testing.T) {
	fi := NewFaultInjector(4, FaultPlan{Churn: &ChurnSpec{Procs: 9, Period: 10, Down: 5}})
	if got := fi.Plan().Churn.Procs; got != 4 {
		t.Fatalf("churn procs = %d, want clamped to 4", got)
	}
}

// TestSendFateNthDeterminism: Nth rules consume no randomness and key only
// on per-sender send indices, so two injectors over the same send sequence
// agree exactly — the property the cross-backend equivalence tests rely on.
func TestSendFateNthDeterminism(t *testing.T) {
	plan := FaultPlan{
		DropNth: []NthRule{{Proc: 2, Every: 3}},
		DupNth:  []NthRule{{Proc: 0, Every: 5}}, // proc 0 = every sender
	}
	a := NewFaultInjector(4, plan)
	b := NewFaultInjector(4, plan)
	senders := []ProcID{1, 2, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2}
	for i, from := range senders {
		da, pa := a.SendFate(from)
		db, pb := b.SendFate(from)
		if da != db || pa != pb {
			t.Fatalf("send %d from %d: injectors disagree (%v/%v vs %v/%v)", i, from, da, pa, db, pb)
		}
	}
	// Proc 2 made 9 sends: its 3rd, 6th and 9th are dropped. Proc 1 made 5:
	// its 5th is duplicated (the every-sender rule); proc 2's 5th send is
	// its 6th overall... recompute: the dup rule fires on each sender's own
	// 5th and 10th send unless that send is dropped first.
	st := a.Stats()
	if st.Lost != 3 {
		t.Fatalf("lost = %d, want 3 (proc 2's every-3rd of 9 sends)", st.Lost)
	}
	// Proc 1's 5th send dups; proc 2's 5th send dups (its index 5 is not a
	// multiple of 3).
	if st.Duplicated != 2 {
		t.Fatalf("duplicated = %d, want 2", st.Duplicated)
	}
}

func TestSendFateDropPrecludesDup(t *testing.T) {
	// Send 15 of a proc matches both every-3 and every-5; drop wins and the
	// message is not also duplicated.
	fi := NewFaultInjector(2, FaultPlan{
		DropNth: []NthRule{{Proc: 1, Every: 3}},
		DupNth:  []NthRule{{Proc: 1, Every: 5}},
	})
	var drops, dups int64
	for i := 0; i < 15; i++ {
		drop, dup := fi.SendFate(1)
		if drop && dup {
			t.Fatal("a send was both dropped and duplicated")
		}
		if drop {
			drops++
		}
		if dup {
			dups++
		}
	}
	if drops != 5 || dups != 2 { // drops at 3,6,9,12,15; dups at 5,10 (15 dropped)
		t.Fatalf("drops=%d dups=%d, want 5/2", drops, dups)
	}
}

func TestDownAtCrashWindows(t *testing.T) {
	fi := NewFaultInjector(8, FaultPlan{Crashes: []Downtime{
		{Proc: 2, From: 100, To: 200},
		{Proc: 3, From: 50}, // never recovers
	}})
	for _, tc := range []struct {
		p       ProcID
		t       int64
		down    bool
		until   int64
		forever bool
	}{
		{2, 99, false, 0, false},
		{2, 100, true, 200, false},
		{2, 199, true, 200, false},
		{2, 200, false, 0, false},
		{3, 49, false, 0, false},
		{3, 50, true, 0, true},
		{3, 1 << 40, true, 0, true},
		{4, 100, false, 0, false},
	} {
		down, until, forever := fi.DownAt(tc.p, tc.t)
		if down != tc.down || until != tc.until || forever != tc.forever {
			t.Fatalf("DownAt(%d,%d) = %v/%d/%v, want %v/%d/%v",
				tc.p, tc.t, down, until, forever, tc.down, tc.until, tc.forever)
		}
	}
}

func TestDownAtChurnRotation(t *testing.T) {
	// n=8, 2 churned procs, period 100, down 30: cycle c takes processor
	// 8-(c mod 2) down for the cycle's first 30 ticks.
	fi := NewFaultInjector(8, FaultPlan{Churn: &ChurnSpec{Procs: 2, Period: 100, Down: 30}})
	for _, tc := range []struct {
		p     ProcID
		t     int64
		down  bool
		until int64
	}{
		{8, 0, true, 30}, // cycle 0 -> proc 8
		{8, 29, true, 30},
		{8, 30, false, 0},
		{7, 10, false, 0},   // proc 7's turn is cycle 1
		{7, 100, true, 130}, // cycle 1 -> proc 7
		{7, 129, true, 130},
		{7, 130, false, 0},
		{8, 110, false, 0},
		{8, 200, true, 230}, // cycle 2 wraps back to proc 8
		{6, 0, false, 0},    // outside the churned tail
	} {
		down, until, forever := fi.DownAt(tc.p, tc.t)
		if down != tc.down || until != tc.until || forever {
			t.Fatalf("DownAt(%d,%d) = %v/%d/%v, want %v/%d/false",
				tc.p, tc.t, down, until, forever, tc.down, tc.until)
		}
	}
}

// requireLost asserts that operation id lost an event to a fault: it never
// completed, and the network kept no record of it (nor of any other).
func requireLost(t *testing.T, nw *Network, done map[OpID]OpDone, id OpID) {
	t.Helper()
	if _, ok := done[id]; ok {
		t.Fatalf("op %d completed after losing an event", id)
	}
	if live := liveRecords(nw); live != 0 {
		t.Fatalf("%d operation records survive the lost op %d", live, id)
	}
}

// TestLossWedgesOperation: a dropped message wedges its operation — it never
// completes, visibly — instead of letting the operation complete with a
// silent gap; its record is freed all the same.
func TestLossWedgesOperation(t *testing.T) {
	pp := &pingPong{}
	nw := New(3, pp, WithFaults(FaultPlan{DropNth: []NthRule{{Proc: 1, Every: 1}}}))
	if !nw.FaultsActive() {
		t.Fatal("fault plan not installed")
	}
	done := recordDone(t, nw)
	id := nw.StartOp(1, startPing(0)) // 1 -> 2 ping is dropped
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	requireLost(t, nw, done, id)
	if fs := nw.FaultStats(); fs.Lost != 1 || fs.Any() == false {
		t.Fatalf("fault stats = %+v, want Lost 1", fs)
	}
	if pp.pings != 0 {
		t.Fatalf("dropped ping was delivered (%d pings)", pp.pings)
	}
	// The sender still paid: load accounting is unchanged by the loss.
	if got := nw.Load(1); got != 1 {
		t.Fatalf("sender load = %d, want 1 (the destroyed send still counts)", got)
	}
}

func TestDupDeliversTwiceWithFullAccounting(t *testing.T) {
	pp := &pingPong{}
	nw := New(3, pp, WithFaults(FaultPlan{DupNth: []NthRule{{Proc: 1, Every: 1}}}))
	done := recordDone(t, nw)
	id := nw.StartOp(1, startPing(0))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	// The duplicated ping is delivered twice; each delivery sends a pong
	// (proc 2's pong sends are its sends 1 and 2 — also duplicated? No: the
	// DupNth rule targets proc 1 only).
	if pp.pings != 2 {
		t.Fatalf("pings = %d, want 2 (original + duplicate)", pp.pings)
	}
	if pp.pongs != 2 {
		t.Fatalf("pongs = %d, want 2", pp.pongs)
	}
	if st, ok := done[id]; !ok || st.Messages != 4 {
		t.Fatalf("duplicated-message operation did not complete cleanly: %v, %+v", ok, st)
	}
	if fs := nw.FaultStats(); fs.Duplicated != 1 {
		t.Fatalf("duplicated = %d, want 1", fs.Duplicated)
	}
	// 1 ping + 1 dup + 2 pongs: the duplicate is real traffic.
	if got := nw.MessagesTotal(); got != 4 {
		t.Fatalf("total messages = %d, want 4", got)
	}
}

// TestLostOpsFreeTheirRecords: a long sequential run under message loss
// keeps state in proportion to the operations in flight, not to those run.
// Every 1000th ping is lost; each lost operation's record goes with its last
// event, so the op table's floor keeps up and the ring never grows past its
// minimum.
func TestLostOpsFreeTheirRecords(t *testing.T) {
	const ops, every = 200_000, 1000
	nw := New(2, &pingPong{}, WithFaults(FaultPlan{DropNth: []NthRule{{Proc: 1, Every: every}}}))
	completed := 0
	nw.OnOpDone(func(OpDone) { completed++ })
	start := startPing(0)
	for i := 0; i < ops; i++ {
		nw.StartOp(1, start)
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if lost := nw.FaultStats().Lost; lost != ops/every || completed != ops-ops/every {
		t.Fatalf("lost %d, completed %d; want %d and %d", lost, completed, ops/every, ops-ops/every)
	}
	if live := liveRecords(nw); live != 0 {
		t.Fatalf("%d operation records survive the run", live)
	}
	if got := len(nw.ops.ring); got != opTableMinSize {
		t.Fatalf("op ring grew to %d slots (floor %d), want %d", got, nw.ops.floor, opTableMinSize)
	}
}

// TestCrashDrainsDeliveries: an event addressed to a crashed processor is
// destroyed (drained mailbox) and its operation wedges.
func TestCrashDrainsDeliveries(t *testing.T) {
	pp := &pingPong{}
	nw := New(3, pp, WithFaults(FaultPlan{Crashes: []Downtime{{Proc: 2, From: 0, To: 50}}}))
	done := recordDone(t, nw)
	id := nw.StartOp(1, startPing(0)) // ping 1 -> 2 arrives at t=1, proc 2 down
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	requireLost(t, nw, done, id)
	if fs := nw.FaultStats(); fs.CrashDropped != 1 {
		t.Fatalf("crash dropped = %d, want 1", fs.CrashDropped)
	}
	if pp.pings != 0 {
		t.Fatal("crashed processor executed a delivery")
	}
}

// TestFreezeDefersToRecovery: under Freeze the crashed processor's mailbox
// buffers the delivery until recovery; the operation completes late rather
// than wedging.
func TestFreezeDefersToRecovery(t *testing.T) {
	pp := &pingPong{}
	nw := New(3, pp, WithFaults(FaultPlan{
		Crashes: []Downtime{{Proc: 2, From: 0, To: 50}},
		Freeze:  true,
	}))
	done := recordDone(t, nw)
	id := nw.StartOp(1, startPing(0))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	st, ok := done[id]
	if !ok {
		t.Fatal("frozen delivery did not complete")
	}
	if st.End < 50 {
		t.Fatalf("operation completed at %d, before the recovery at 50", st.End)
	}
	fs := nw.FaultStats()
	if fs.CrashDeferred != 1 || fs.CrashDropped != 0 {
		t.Fatalf("fault stats = %+v, want exactly one deferral", fs)
	}
	if pp.pings != 1 || pp.pongs != 1 {
		t.Fatalf("pings=%d pongs=%d, want 1/1 after recovery", pp.pings, pp.pongs)
	}
}

// TestFreezeNeverRecoversDrains: Freeze buffers only for processors that
// recover; messages to a forever-down processor are drained regardless.
func TestFreezeNeverRecoversDrains(t *testing.T) {
	pp := &pingPong{}
	nw := New(3, pp, WithFaults(FaultPlan{
		Crashes: []Downtime{{Proc: 2, From: 0}},
		Freeze:  true,
	}))
	done := recordDone(t, nw)
	id := nw.StartOp(1, startPing(0))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	requireLost(t, nw, done, id)
	if fs := nw.FaultStats(); fs.CrashDropped != 1 || fs.CrashDeferred != 0 {
		t.Fatalf("fault stats = %+v, want one drop and no deferral", fs)
	}
}

// crashTimerProto schedules a local timer on start; delivery of the timer marks
// fired. Used to pin "a crash cancels local timers, even under Freeze".
type crashTimerPayload struct{}

func (crashTimerPayload) Kind() string { return "timer" }

type crashTimerProto struct{ fired int }

func (tp *crashTimerProto) Deliver(nw Transport, msg Message) {
	if _, ok := msg.Payload.(crashTimerPayload); ok {
		tp.fired++
	}
}

func TestCrashCancelsTimers(t *testing.T) {
	tp := &crashTimerProto{}
	nw := New(2, tp, WithFaults(FaultPlan{
		Crashes: []Downtime{{Proc: 1, From: 5, To: 100}},
		Freeze:  true, // even frozen crashes lose soft state
	}))
	done := recordDone(t, nw)
	id := nw.StartOp(1, func(nw Transport, p ProcID) {
		nw.After(10, crashTimerPayload{}) // fires at t=10, inside the crash window
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if tp.fired != 0 {
		t.Fatal("timer at a crashed processor fired")
	}
	if fs := nw.FaultStats(); fs.TimersCancelled != 1 || fs.CrashDeferred != 0 {
		t.Fatalf("fault stats = %+v, want one cancelled timer", fs)
	}
	requireLost(t, nw, done, id)
}

// TestCloneReplaysFaultSchedule: a clone taken at quiescence replays the
// identical probabilistic fault schedule — same RNG position, same send
// indices — so original and clone fire byte-identical fault sequences on
// identical subsequent work.
func TestCloneReplaysFaultSchedule(t *testing.T) {
	pp := &pingPong{}
	nw := New(4, pp, WithFaults(FaultPlan{Loss: 0.3, Dup: 0.2, Seed: 11}))
	for i := 0; i < 20; i++ {
		nw.StartOp(ProcID(i%4+1), startPing(2))
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	clone, err := nw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clone.FaultStats(), nw.FaultStats(); got != want {
		t.Fatalf("clone fault stats %+v != original %+v", got, want)
	}
	run := func(w *Network) FaultStats {
		for i := 0; i < 30; i++ {
			w.StartOp(ProcID(i%4+1), startPing(3))
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return w.FaultStats()
	}
	a, b := run(nw), run(clone)
	if a != b {
		t.Fatalf("diverged after clone: original %+v, clone %+v", a, b)
	}
	if !a.Any() {
		t.Fatal("probabilistic plan fired nothing across 50 ops — test is vacuous")
	}
	if nw.MessagesTotal() != clone.MessagesTotal() {
		t.Fatalf("message totals diverged: %d vs %d", nw.MessagesTotal(), clone.MessagesTotal())
	}
}

// TestFaultInjectorCloneRNGPosition: the injector's clone continues from
// the same RNG position, not from the seed.
func TestFaultInjectorCloneRNGPosition(t *testing.T) {
	fi := NewFaultInjector(2, FaultPlan{Loss: 0.5})
	for i := 0; i < 7; i++ {
		fi.SendFate(1)
	}
	cl := fi.Clone()
	if cl.Stats() != fi.Stats() {
		t.Fatalf("clone stats %+v != original %+v", cl.Stats(), fi.Stats())
	}
	for i := 0; i < 50; i++ {
		from := ProcID(i%2 + 1)
		d1, p1 := fi.SendFate(from)
		d2, p2 := cl.SendFate(from)
		if d1 != d2 || p1 != p2 {
			t.Fatalf("send %d: original %v/%v, clone %v/%v", i, d1, p1, d2, p2)
		}
	}
}

func TestWithFaultsEmptyPlanRemoves(t *testing.T) {
	nw := New(2, &pingPong{}, WithFaults(FaultPlan{Loss: 0.5}), WithFaults(FaultPlan{}))
	if nw.FaultsActive() {
		t.Fatal("empty plan did not remove the earlier one")
	}
}
