package sim

import "testing"

// dagLog collects the Delivery records of an OnDeliver hook per operation.
// (The DAG builder, internal/trace, imports this package, so the tests here
// read the raw records.)
type dagLog map[OpID][]Delivery

func (l dagLog) record(d Delivery) { l[d.Op] = append(l[d.Op], d) }

// check requires op's records to form a well-formed DAG in the order the
// simulator reports it: the source at the initiator first, then nodes
// numbered 1, 2, ... whose parents are earlier nodes. It returns the
// records.
func (l dagLog) check(t *testing.T, op OpID, initiator ProcID) []Delivery {
	t.Helper()
	recs := l[op]
	if len(recs) == 0 || recs[0] != (Delivery{Op: op, Proc: initiator, Parent: -1}) {
		t.Fatalf("op %d: records %+v do not open with the source at %v", op, recs, initiator)
	}
	for i, d := range recs[1:] {
		if d.Node != i+1 || d.Parent < 0 || d.Parent > i {
			t.Fatalf("op %d: record %+v at position %d", op, d, i+1)
		}
	}
	return recs
}

// TestOnDeliverUnderFaults: a lost message makes no node and a duplicated
// one makes two, each answered from its own node. The plans are
// deterministic Nth rules on processor 1's sends, so they fire on its one
// ping; rt's TestOnDeliverUnderFaults is the same check on real cores.
func TestOnDeliverUnderFaults(t *testing.T) {
	lossy := New(3, &pingPong{}, WithFaults(FaultPlan{DropNth: []NthRule{{Proc: 1, Every: 1}}}))
	log := dagLog{}
	lossy.OnDeliver(log.record)
	done := recordDone(t, lossy)
	id := lossy.StartOp(1, startPing(0)) // the 1 -> 2 ping is lost
	if err := lossy.Run(); err != nil {
		t.Fatal(err)
	}
	if recs := log.check(t, id, 1); len(recs) != 1 || len(done) != 0 {
		t.Fatalf("lost ping: records %+v, completions %v; want the source alone and none", recs, done)
	}

	dup := New(3, &pingPong{}, WithFaults(FaultPlan{DupNth: []NthRule{{Proc: 1, Every: 1}}}))
	log = dagLog{}
	dup.OnDeliver(log.record)
	id = dup.StartOp(1, startPing(0)) // the ping arrives twice, each copy answered
	if err := dup.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Delivery{
		{Op: id, Proc: 1, Node: 0, Parent: -1},
		{Op: id, Proc: 2, Node: 1, Parent: 0},
		{Op: id, Proc: 2, Node: 2, Parent: 0},
		{Op: id, Proc: 1, Node: 3, Parent: 1},
		{Op: id, Proc: 1, Node: 4, Parent: 2},
	}
	recs := log.check(t, id, 1)
	if len(recs) != len(want) {
		t.Fatalf("duplicated ping: records %+v, want %+v", recs, want)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("duplicated ping: records %+v, want %+v", recs, want)
		}
	}
}

// TestOnDeliverFromInstallOn: an operation started before the hook was
// installed is not recorded, even though it runs after; one started while
// it is installed is; nil removes the hook.
func TestOnDeliverFromInstallOn(t *testing.T) {
	nw := New(4, &pingPong{})
	done := recordDone(t, nw)
	early := nw.StartOp(1, startPing(1))
	log := dagLog{}
	nw.OnDeliver(log.record)
	late := nw.StartOp(3, startPing(1))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log[early]) != 0 {
		t.Fatalf("operation started before the hook recorded %+v", log[early])
	}
	if recs := log.check(t, late, 3); int64(len(recs)-1) != done[late].Messages {
		t.Fatalf("operation started under the hook: records %+v", recs)
	}
	nw.OnDeliver(nil)
	after := nw.StartOp(2, startPing(1))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log[after]) != 0 {
		t.Fatalf("operation started after the hook was removed recorded %+v", log[after])
	}
}

// TestCloneCarriesNoDeliverHook: a clone starts with no hook, like OnOpDone;
// its operations reach the original's hook only if installed there again.
func TestCloneCarriesNoDeliverHook(t *testing.T) {
	nw := New(4, &pingPong{})
	log := dagLog{}
	nw.OnDeliver(log.record)
	cl, err := nw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cl.StartOp(2, startPing(1))
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("a clone's operation reached the original's hook: %+v", log)
	}
	cl.OnDeliver(log.record)
	id := cl.StartOp(2, startPing(1))
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	log.check(t, id, 2)
}
