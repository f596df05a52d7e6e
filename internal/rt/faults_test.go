package rt_test

import (
	"sync/atomic"
	"testing"
	"time"

	"distcount/internal/counter"
	"distcount/internal/rt"
	"distcount/internal/sim"
)

// The completion path under faults, on real time: the simulator's fault
// tests of the same names (internal/sim/faults_test.go), driven by
// deterministic Nth rules and downtime windows only, so each fires on the
// same send or delivery whatever the interleaving.

// pong is the ping-pong protocol's reply.
type pong struct{}

func (pong) Kind() string { return "pong" }

// pingPong counts deliveries: processor 1's operation pings processor 2,
// which answers every ping with a pong.
type pingPong struct{ pings, pongs atomic.Int32 }

func (pp *pingPong) Deliver(nw sim.Transport, msg sim.Message) {
	switch msg.Payload.(type) {
	case ping:
		pp.pings.Add(1)
		nw.Send(msg.From, pong{})
	case pong:
		pp.pongs.Add(1)
	}
}

// pingPongRuntime runs the ping-pong protocol on three processors under plan
// and collects every completion it reports.
func pingPongRuntime(t *testing.T, plan sim.FaultPlan) (*pingPong, *rt.Runtime, <-chan sim.OpDone) {
	t.Helper()
	pp := &pingPong{}
	r := rt.New(timerMachine(3, pp, func(nw counter.Transport, _ sim.ProcID) {
		nw.Send(2, ping{})
	}), rt.WithFaults(plan))
	t.Cleanup(r.Close)
	if !r.FaultsActive() {
		t.Fatal("fault plan not installed")
	}
	// Room beyond the one operation each test starts: a second report of it
	// shows in the channel instead of blocking a worker.
	done := make(chan sim.OpDone, 4)
	r.OnOpDone(func(d sim.OpDone) { done <- d })
	return pp, r, done
}

// wedgedAfter waits until fired reports the fault, closes the runtime —
// every worker has then returned, so whatever the operation had left to run
// has run — and requires that no completion was reported.
func wedgedAfter(t *testing.T, r *rt.Runtime, done <-chan sim.OpDone, fired func(sim.FaultStats) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !fired(r.FaultStats()); {
		if time.Now().After(deadline) {
			t.Fatalf("fault never fired: %+v", r.FaultStats())
		}
		time.Sleep(time.Millisecond)
	}
	r.Close()
	select {
	case d := <-done:
		t.Fatalf("operation with a destroyed event completed: %+v", d)
	default:
	}
}

// down is a downtime window that outlasts any test.
const down = int64(time.Hour / rt.DefaultTick)

// TestLossWedgesOperation: a dropped message wedges its operation — it never
// reports a completion — and the loss is counted; the sender still paid.
func TestLossWedgesOperation(t *testing.T) {
	pp, r, done := pingPongRuntime(t, sim.FaultPlan{DropNth: []sim.NthRule{{Proc: 1, Every: 1}}})
	r.Start(0, 1) // the 1 -> 2 ping is dropped
	wedgedAfter(t, r, done, func(fs sim.FaultStats) bool { return fs.Lost > 0 })
	if fs := r.FaultStats(); fs.Lost != 1 || fs.Duplicated != 0 || fs.CrashDropped != 0 {
		t.Fatalf("fault stats = %+v, want Lost 1", fs)
	}
	if pp.pings.Load() != 0 {
		t.Fatalf("dropped ping was delivered (%d pings)", pp.pings.Load())
	}
	if sent, recv := r.Loads(nil, nil); sent[1] != 1 || recv[2] != 0 {
		t.Fatalf("sender sent %d, receiver got %d: want the destroyed send counted once and received never", sent[1], recv[2])
	}
}

// TestDupDeliversTwiceWithFullAccounting: a duplicated send is a genuine
// second transmission. The ping is delivered twice and answered twice, and
// the operation completes once, with both copies charged to the loads and to
// its record: two sends and two receipts each way, four messages in all.
func TestDupDeliversTwiceWithFullAccounting(t *testing.T) {
	pp, r, done := pingPongRuntime(t, sim.FaultPlan{DupNth: []sim.NthRule{{Proc: 1, Every: 1}}})
	id := r.Start(0, 1)
	var d sim.OpDone
	select {
	case d = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("duplicated-message operation never completed")
	}
	if d.ID != id || d.Initiator != 1 || d.Messages != 4 || d.End < d.Start {
		t.Fatalf("completion %+v, want op %d by 1 with 4 messages", d, id)
	}
	if pp.pings.Load() != 2 || pp.pongs.Load() != 2 {
		t.Fatalf("pings=%d pongs=%d, want 2/2 (original + duplicate)", pp.pings.Load(), pp.pongs.Load())
	}
	if fs := r.FaultStats(); fs.Duplicated != 1 || fs.Lost != 0 {
		t.Fatalf("fault stats = %+v, want Duplicated 1", fs)
	}
	if sent, recv := r.Loads(nil, nil); sent[1] != 2 || recv[2] != 2 || sent[2] != 2 || recv[1] != 2 {
		t.Fatalf("sent %v recv %v, want 2 each way between processors 1 and 2", sent, recv)
	}
	if got := r.MessagesTotal(); got != 4 {
		t.Fatalf("total messages = %d, want 4", got)
	}
	r.Close()
	if len(done) != 0 {
		t.Fatalf("%d more completions after the one operation", len(done))
	}
}

// TestCrashDrainsDeliveries: a delivery at a crashed processor is destroyed
// (drained mailbox), counted, and its operation wedges.
func TestCrashDrainsDeliveries(t *testing.T) {
	pp, r, done := pingPongRuntime(t, sim.FaultPlan{Crashes: []sim.Downtime{{Proc: 2, From: 0, To: down}}})
	r.Start(0, 1) // the ping reaches processor 2 while it is down
	wedgedAfter(t, r, done, func(fs sim.FaultStats) bool { return fs.CrashDropped > 0 })
	if fs := r.FaultStats(); fs.CrashDropped != 1 || fs.CrashDeferred != 0 {
		t.Fatalf("fault stats = %+v, want one drop", fs)
	}
	if pp.pings.Load() != 0 {
		t.Fatal("crashed processor executed a delivery")
	}
}

// TestFreezeNeverRecoversDrains: Freeze holds deliveries only for processors
// that recover; one to a processor that is down for good is drained
// regardless, and its operation wedges.
func TestFreezeNeverRecoversDrains(t *testing.T) {
	pp, r, done := pingPongRuntime(t, sim.FaultPlan{Crashes: []sim.Downtime{{Proc: 2, From: 0}}, Freeze: true})
	r.Start(0, 1)
	wedgedAfter(t, r, done, func(fs sim.FaultStats) bool { return fs.CrashDropped > 0 })
	if fs := r.FaultStats(); fs.CrashDropped != 1 || fs.CrashDeferred != 0 {
		t.Fatalf("fault stats = %+v, want one drop and no deferral", fs)
	}
	if pp.pings.Load() != 0 {
		t.Fatal("a processor down for good executed a delivery")
	}
}
