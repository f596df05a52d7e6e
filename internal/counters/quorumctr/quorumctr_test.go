package quorumctr

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counter/countertest"
	"distcount/internal/loadstat"
	"distcount/internal/quorum"
	"distcount/internal/sim"
)

func majorityFactory(n int) counter.Counter {
	return counter.OnSim(NewMachine(quorum.NewMajority(n)))
}

func gridFactory(n int) counter.Counter {
	return counter.OnSim(NewMachine(quorum.NewGrid(n)))
}

func treeFactory(n int) counter.Counter {
	return counter.OnSim(NewMachine(quorum.NewTree(n)))
}

func wallFactory(n int) counter.Counter {
	return counter.OnSim(NewMachine(quorum.NewWall(n)))
}

func singletonFactory(n int) counter.Counter {
	return counter.OnSim(NewMachine(quorum.NewSingleton(n)))
}

func TestConformanceMajority(t *testing.T) {
	countertest.Conformance(t, majorityFactory, 1, 2, 8, 33)
}

func TestConformanceGrid(t *testing.T) {
	countertest.Conformance(t, gridFactory, 1, 8, 36, 50)
}

func TestConformanceTree(t *testing.T) {
	countertest.Conformance(t, treeFactory, 1, 8, 31, 40)
}

func TestConformanceWall(t *testing.T) {
	countertest.Conformance(t, wallFactory, 1, 8, 10, 27)
}

func TestConformanceSingleton(t *testing.T) {
	countertest.Conformance(t, singletonFactory, 1, 8)
}

func TestCloneIndependence(t *testing.T) {
	countertest.CloneIndependence(t, gridFactory, 16)
}

func TestMessagesPerOp(t *testing.T) {
	// An op over quorum Q costs 2 messages per read of a non-self member
	// plus 2 per write: 4·|Q \ {p}|. Processor p's first operation uses
	// quorum index p-1 (a strictly local choice).
	sys := quorum.NewMajority(9) // quorum size 5
	c := counter.OnSim(NewMachine(sys))
	p := sim.ProcID(7)
	q := sys.Quorum(int(p) - 1) // {7,8,9,1,2}
	remote := 0
	for _, m := range q {
		if m != int(p) {
			remote++
		}
	}
	if remote != 4 {
		t.Fatalf("test setup: %d remote members, want 4 (quorum %v)", remote, q)
	}
	if _, err := c.Inc(p); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Net().MessagesTotal(), int64(4*remote); got != want {
		t.Fatalf("messages = %d, want %d", got, want)
	}
}

func TestLocalQuorumChoiceRotates(t *testing.T) {
	// Successive operations by the SAME processor advance its local
	// rotation: indices p-1, p-1+n, p-1+2n, ...
	sys := quorum.NewMajority(5)
	c := counter.OnSim(NewMachine(sys))
	if _, err := c.Inc(2); err != nil {
		t.Fatal(err)
	}
	first := c.Net().MessagesTotal()
	if _, err := c.Inc(2); err != nil {
		t.Fatal(err)
	}
	// Quorum(1) = {2..4} wraps? For majority(5): size 3; Quorum(1) =
	// {2,3,4} (p inside -> 2 remote); Quorum(6) = {2,3,4} as well (index
	// mod n), so message counts match; the point is it stays correct and
	// local.
	if c.Net().MessagesTotal() <= first {
		t.Fatal("second op sent no messages")
	}
}

// TestGridLoadBeatsMajority: over the canonical workload, the grid-based
// counter's bottleneck is asymptotically below the majority-based one
// (O(√n) vs Θ(n)).
func TestGridLoadBeatsMajority(t *testing.T) {
	const n = 49
	grid := gridFactory(n)
	maj := majorityFactory(n)
	if _, err := counter.RunSequence(grid, counter.SequentialOrder(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := counter.RunSequence(maj, counter.SequentialOrder(n)); err != nil {
		t.Fatal(err)
	}
	g := loadstat.Summarize(grid.Loads(nil, nil))
	m := loadstat.Summarize(maj.Loads(nil, nil))
	if g.MaxLoad >= m.MaxLoad {
		t.Fatalf("grid bottleneck %d not below majority %d", g.MaxLoad, m.MaxLoad)
	}
}

// TestTreeQuorumRootHotSpot: the tree-quorum counter has small quorums but
// a hot root — message-cheap yet bottleneck-heavy, the distinction the
// paper's load measure makes visible.
func TestTreeQuorumRootHotSpot(t *testing.T) {
	const n = 63
	c := treeFactory(n)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(n)); err != nil {
		t.Fatal(err)
	}
	s := loadstat.Summarize(c.Loads(nil, nil))
	if s.MaxLoad < 3*int64(s.Mean) {
		t.Fatalf("tree-quorum bottleneck %d not clearly above mean %.1f", s.MaxLoad, s.Mean)
	}
}

func TestName(t *testing.T) {
	if got := counter.OnSim(NewMachine(quorum.NewGrid(9))).Name(); got != "quorum-grid" {
		t.Fatalf("name = %q", got)
	}
}

func TestSystemAccessor(t *testing.T) {
	sys := quorum.NewWall(10)
	pr := NewMachine(sys).Proto.(*proto)
	if pr.sys.Name() != "wall" || pr.sys.N() != 10 {
		t.Fatal("the protocol does not run over the configured quorum system")
	}
}

func TestPayloadKinds(t *testing.T) {
	kinds := map[string]interface{ Kind() string }{
		"read-request":  readReq{},
		"read-response": readResp{},
		"write-request": writeReq{},
		"write-ack":     writeAck{},
	}
	for want, pl := range kinds {
		if got := pl.Kind(); got != want {
			t.Errorf("Kind() = %q, want %q", got, want)
		}
	}
}

func TestStaleWriteIgnored(t *testing.T) {
	// A replica must keep the higher-version value when writes arrive out
	// of order. Exercised directly on the replica rule.
	pr := &proto{replicas: make([]replica, 4)}
	pr.replicas[2] = replica{val: 9, ver: 9}
	// Simulate the writeReq guard: lower version must not regress.
	if pl := (writeReq{Val: 3, Ver: 3}); pl.Ver > pr.replicas[2].ver {
		t.Fatal("test setup wrong")
	}
	r := &pr.replicas[2]
	pl := writeReq{Val: 3, Ver: 3}
	if pl.Ver > r.ver {
		r.val, r.ver = pl.Val, pl.Ver
	}
	if r.val != 9 || r.ver != 9 {
		t.Fatalf("stale write regressed replica to %+v", *r)
	}
}
