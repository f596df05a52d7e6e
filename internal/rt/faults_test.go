package rt_test

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"distcount/internal/counter"
	"distcount/internal/counters/combining"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/trace"
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

// TestLostOpsFreeTheirRecords: a long sequential run under message loss
// keeps no record of a lost operation: each is freed with its last unit,
// without a completion, as on the simulator. On the ping-pong protocol every
// 100th ping is lost. On combining at n = 2 every request of processor 2 is
// duplicated, so the copy merges into the window the original opened and
// adopts the operation, and every 7th of the root host's two value messages
// per operation is lost: the surviving copy still delivers the value, but
// the operation is lost, and its adopted record must leave the op table.
func TestLostOpsFreeTheirRecords(t *testing.T) {
	for _, tc := range []struct {
		name      string
		m         counter.Machine
		p         sim.ProcID // the initiator
		plan      sim.FaultPlan
		ops, lost int
	}{
		{
			name: "ping-pong",
			m: timerMachine(3, &pingPong{}, func(nw counter.Transport, _ sim.ProcID) {
				nw.Send(2, ping{})
			}),
			p:    1,
			plan: sim.FaultPlan{DropNth: []sim.NthRule{{Proc: 1, Every: 100}}},
			ops:  20_000, lost: 200,
		},
		{
			name: "combining",
			m:    combining.NewMachine(2, combining.WithWindow(100)),
			p:    2,
			plan: sim.FaultPlan{
				DupNth:  []sim.NthRule{{Proc: 2, Every: 1}},
				DropNth: []sim.NthRule{{Proc: 1, Every: 7}},
			},
			ops: 2_000, lost: 2 * 2_000 / 7,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rt.New(tc.m, rt.WithFaults(tc.plan))
			defer r.Close()
			done := make(chan sim.OpDone, 4)
			r.OnOpDone(func(d sim.OpDone) { done <- d })
			completed := 0
			for i := 0; i < tc.ops; i++ {
				// The operation has ended once it completed or lost a message,
				// and its initiator is free again once its value landed (which
				// OpValue consumes).
				id := r.Start(0, tc.p)
				valued := false
				for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
					select {
					case <-done:
						completed++
					default:
					}
					if !valued {
						_, valued = r.OpValue(id)
					}
					if valued && completed+int(r.FaultStats().Lost) == i+1 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("op %d of %d neither completed nor lost a message: %+v", i, tc.ops, r.FaultStats())
					}
				}
			}
			if lost := r.FaultStats().Lost; lost != int64(tc.lost) || completed != tc.ops-tc.lost {
				t.Fatalf("lost %d, completed %d; want %d and %d", lost, completed, tc.lost, tc.ops-tc.lost)
			}
			// A lost operation's last unit may still be in flight.
			for deadline := time.Now().Add(5 * time.Second); rt.Registered(r) != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d operation records survive the run", rt.Registered(r))
				}
			}
		})
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

// TestOnDeliverUnderFaults: the OnDeliver record on real cores under the
// same deterministic plans as the simulator's test of this name. A lost
// ping makes no node; a duplicated one makes two, each answered from its
// own node.
func TestOnDeliverUnderFaults(t *testing.T) {
	_, r, done := pingPongRuntime(t, sim.FaultPlan{DropNth: []sim.NthRule{{Proc: 1, Every: 1}}})
	var rec trace.Recorder
	r.OnDeliver(rec.Record)
	id := r.Start(0, 1)
	wedgedAfter(t, r, done, func(fs sim.FaultStats) bool { return fs.Lost > 0 })
	if d := rec.DAG(id); d == nil || len(d.Nodes) != 1 || d.Initiator != 1 {
		t.Fatalf("lost ping: DAG %+v, want the source alone", d)
	}

	_, r, done = pingPongRuntime(t, sim.FaultPlan{DupNth: []sim.NthRule{{Proc: 1, Every: 1}}})
	rec = trace.Recorder{}
	r.OnDeliver(rec.Record)
	id = r.Start(0, 1)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("duplicated-ping operation never completed")
	}
	d := rec.DAG(id)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Source, two pings at processor 2, two pongs at processor 1 — each pong
	// hangs off a different ping, in whichever order the workers numbered
	// them.
	if got := d.CommunicationList(); !slices.Equal(got, []int{1, 2, 2, 1, 1}) {
		t.Fatalf("duplicated ping: communication list %v, want [1 2 2 1 1]", got)
	}
	pongParents := []int{d.Nodes[3].Parent, d.Nodes[4].Parent}
	slices.Sort(pongParents)
	if d.Nodes[1].Parent != 0 || d.Nodes[2].Parent != 0 || !slices.Equal(pongParents, []int{1, 2}) {
		t.Fatalf("duplicated ping: nodes %+v", d.Nodes)
	}
}
