package distcount_test

import (
	"fmt"
	"sort"

	"distcount"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

// The headline use: build the paper's counter, run the canonical workload,
// inspect the bottleneck.
func Example() {
	c := distcount.NewTreeCounter(2) // k=2: n = 2·2² = 8 processors
	res, err := distcount.RunSequence(c, distcount.SequentialOrder(c.N()))
	if err != nil {
		panic(err)
	}
	sum := distcount.Loads(c)
	fmt.Println("values:", res.Values)
	fmt.Println("bottleneck load:", sum.MaxLoad)
	fmt.Println("lower bound k:", distcount.SolveK(c.N()))
	// Output:
	// values: [0 1 2 3 4 5 6 7]
	// bottleneck load: 35
	// lower bound k: 2
}

// SolveK computes the paper's bound parameter k(n) with k·k^k = n.
func ExampleSolveK() {
	for _, n := range []int{8, 81, 1024, 279936} {
		fmt.Printf("k(%d) = %d\n", n, distcount.SolveK(n))
	}
	// Output:
	// k(8) = 2
	// k(81) = 3
	// k(1024) = 4
	// k(279936) = 6
}

// New builds any of the implemented counters by name.
func ExampleNew() {
	c, err := distcount.New("central", 4)
	if err != nil {
		panic(err)
	}
	v1, _ := c.Inc(2)
	v2, _ := c.Inc(3)
	fmt.Println(v1, v2)
	fmt.Println("messages:", c.Net().MessagesTotal())
	// Output:
	// 0 1
	// messages: 4
}

// RunAdversary executes the Lower Bound Theorem's constructive workload.
func ExampleRunAdversary() {
	c, err := distcount.New("central", 8)
	if err != nil {
		panic(err)
	}
	res, err := distcount.RunAdversary(c.(distcount.Cloneable))
	if err != nil {
		panic(err)
	}
	fmt.Println("bound k:", res.BoundK)
	fmt.Println("bottleneck meets bound:", res.Summary.MaxLoad >= int64(res.BoundK))
	fmt.Println("proof checks:", distcount.VerifyAdversary(res) == nil)
	// Output:
	// bound k: 2
	// bottleneck meets bound: true
	// proof checks: true
}

// NewFlipBit serves the paper's first extension data structure.
func ExampleNewFlipBit() {
	bit := distcount.NewFlipBit(2)
	before, _ := bit.Flip(3) // test-and-flip by processor 3
	after, _ := bit.Read(7)  // read by processor 7 sees the flip
	fmt.Println(before, after)
	// Output:
	// false true
}

// NewPriorityQueue serves the paper's second extension data structure.
func ExampleNewPriorityQueue() {
	pq := distcount.NewPriorityQueue(2)
	_ = pq.Insert(1, 42)
	_ = pq.Insert(2, 7)
	min, ok, _ := pq.DelMin(3)
	fmt.Println(min, ok)
	// Output:
	// 7 true
}

// The Hot Spot Lemma: when p and q increment in direct succession, the
// participant sets of their operations intersect — otherwise q could not
// know about p's increment. Two operations by far-apart processors
// on three counters show the shared processor carrying the value.
func Example_hotspot() {
	for _, algo := range []string{"central", "ctree", "quorum-grid"} {
		c, err := distcount.New(algo, 8)
		if err != nil {
			panic(err)
		}
		res, err := distcount.RunSequence(c, []distcount.ProcID{2, 7})
		if err != nil {
			panic(err)
		}
		net := c.Net()
		first, second := net.OpStats(res.OpIDs[0]).Participants(), net.OpStats(res.OpIDs[1]).Participants()
		fmt.Printf("%s: I_p2 = %v, I_p7 = %v, shared %v\n", algo, first, second, intersect(first, second))
	}
	// Output:
	// central: I_p2 = [1 2], I_p7 = [1 7], shared [1]
	// ctree: I_p2 = [1 2 5], I_p7 = [1 3 7 8], shared [1]
	// quorum-grid: I_p2 = [1 2 5 6 7 8], I_p7 = [1 2 3 4 7 8], shared [1 2 7 8]
}

// intersect returns the elements of b that are also in a, in b's order.
func intersect(a, b []int) []int {
	inA := make(map[int]bool, len(a))
	for _, p := range a {
		inA[p] = true
	}
	var out []int
	for _, p := range b {
		if inA[p] {
			out = append(out, p)
		}
	}
	return out
}

// The comparison the paper's introduction motivates: over the canonical
// workload the centralized counter is message-optimal yet its holder
// drowns, while the paper's communication tree keeps everyone at O(k).
// Rows are sorted by bottleneck load; total messages show what a flat
// profile costs.
func Example_loadbalance() {
	const n = 81 // 81 = 3·3³, so the bound parameter k = 3
	type row struct {
		name              string
		bottleneck, total int64
	}
	var rows []row
	for _, algo := range distcount.Algorithms() {
		c, err := distcount.New(algo, n)
		if err != nil {
			panic(err)
		}
		if _, err := distcount.RunSequence(c, distcount.RandomOrder(c.N(), 7)); err != nil {
			panic(err)
		}
		s := distcount.Loads(c)
		rows = append(rows, row{algo, s.MaxLoad, s.TotalMessages})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].bottleneck < rows[j].bottleneck })
	fmt.Printf("lower bound k = %d\n", distcount.SolveK(n))
	for _, r := range rows {
		fmt.Printf("%-16s bottleneck %4d  total %6d\n", r.name, r.bottleneck, r.total)
	}
	// Output:
	// lower bound k = 3
	// cnet             bottleneck   36  total    972
	// cnet-periodic    bottleneck   56  total   1458
	// ctree            bottleneck   57  total    741
	// tokenring        bottleneck   80  total   3234
	// quorum-grid      bottleneck  136  total   5472
	// quorum-wall      bottleneck  136  total   3904
	// central          bottleneck  160  total    160
	// css-sample       bottleneck  160  total    160
	// gxu-threshold    bottleneck  160  total    160
	// difftree         bottleneck  186  total    405
	// quorum-tree      bottleneck  280  total   3328
	// quorum-majority  bottleneck  320  total  12960
	// quorum-singleton bottleneck  320  total    320
	// combining        bottleneck  500  total   1040
}

// Outside the paper's sequential model, operations on the tree counter may
// overlap: all n started at once pipeline up the communication tree, the
// root serializes them, and the history stays linearizable — in far less
// simulated time than n operations run one after another.
func Example_concurrent() {
	const k = 3
	n := distcount.SizeFor(k)

	seq := distcount.NewTreeCounter(k)
	if _, err := distcount.RunSequence(seq, distcount.SequentialOrder(n)); err != nil {
		panic(err)
	}

	c, err := distcount.New("ctree", n, distcount.InConcurrentRegime())
	if err != nil {
		panic(err)
	}
	ids := make([]sim.OpID, n)
	for i := range ids {
		ids[i] = c.Start(0, distcount.ProcID(i+1))
	}
	if err := c.Net().Run(); err != nil {
		panic(err)
	}
	values := make([]int, n)
	for i, id := range ids {
		v, ok := c.OpValue(id)
		if !ok {
			panic(fmt.Sprintf("operation %d got no value", id))
		}
		values[i] = v
	}
	timed, err := verify.CollectTimedValues(c.Net(), ids, values)
	if err != nil {
		panic(err)
	}
	fmt.Printf("n=%d: sequential makespan %d ticks, pipelined %d ticks\n", n, seq.Net().Now(), c.Net().Now())
	fmt.Println("linearizable:", verify.Linearizable(timed) == nil)
	// Output:
	// n=81: sequential makespan 408 ticks, pipelined 23 ticks
	// linearizable: true
}
