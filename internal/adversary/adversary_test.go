package adversary

import (
	"slices"
	"testing"

	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/counters/central"
	"distcount/internal/counters/tokenring"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/trace"
)

func centralFactory(n int) *counter.Sim {
	return counter.OnSim(central.NewMachine(n))
}

func ctreeFactory(n int) *counter.Sim {
	return core.NewForSize(n).Sim
}

func ringFactory(n int) *counter.Sim {
	return counter.OnSim(tokenring.NewMachine(n))
}

func TestFullRunCentral(t *testing.T) {
	c := centralFactory(8)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 8 {
		t.Fatalf("steps = %d, want 8", len(res.Steps))
	}
	if res.BoundK != 2 {
		t.Fatalf("boundK = %d, want 2", res.BoundK)
	}
	if err := VerifyProofStructure(res); err != nil {
		t.Fatal(err)
	}
	// The centralized counter's bottleneck under the canonical workload is
	// ~2(n-1), far above the bound.
	if res.Summary.MaxLoad < 2*(8-1) {
		t.Fatalf("central bottleneck = %d, want >= 14", res.Summary.MaxLoad)
	}
}

func TestEveryProcessorChosenOnce(t *testing.T) {
	res, err := Run(centralFactory(8))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[sim.ProcID]bool)
	for _, st := range res.Steps {
		if seen[st.Chosen] {
			t.Fatalf("processor %v chosen twice", st.Chosen)
		}
		seen[st.Chosen] = true
	}
	if len(seen) != 8 {
		t.Fatalf("%d distinct processors, want 8", len(seen))
	}
}

func TestFullRunCTree(t *testing.T) {
	res, err := Run(ctreeFactory(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProofStructure(res); err != nil {
		t.Fatal(err)
	}
}

// TestCTreeBeatsCentralUnderAdversary verifies the paper's headline
// comparison under the adversarial order: by n = 81 (k = 3) the tree
// counter's O(k) bottleneck undercuts the centralized counter's Θ(n) one.
// (At n = 8 the tree's constants — threshold 4k, handoffs of 2k+3 messages
// — still dominate; the crossover lies between k=2 and k=3, which
// experiment E6 charts.)
func TestCTreeBeatsCentralUnderAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("full adversary at n=81")
	}
	resCentral, err := Run(centralFactory(81))
	if err != nil {
		t.Fatal(err)
	}
	resTree, err := Run(ctreeFactory(81))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProofStructure(resTree); err != nil {
		t.Fatal(err)
	}
	if resTree.Summary.MaxLoad >= resCentral.Summary.MaxLoad {
		t.Fatalf("ctree bottleneck %d not below central %d at n=81",
			resTree.Summary.MaxLoad, resCentral.Summary.MaxLoad)
	}
}

func TestFullRunTokenRing(t *testing.T) {
	res, err := Run(ringFactory(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProofStructure(res); err != nil {
		t.Fatal(err)
	}
}

func TestAdversaryBeatsSequentialOrderOnRing(t *testing.T) {
	// The adversary maximizes per-op list lengths; on the token ring it
	// must find an order at least as expensive in total messages as the
	// natural sequential order (where each op moves the token one hop).
	n := 8
	adv, err := Run(ringFactory(n))
	if err != nil {
		t.Fatal(err)
	}
	seq := ringFactory(n)
	if _, err := counter.RunSequence(seq, counter.SequentialOrder(n)); err != nil {
		t.Fatal(err)
	}
	if adv.Summary.TotalMessages < seq.Net().MessagesTotal() {
		t.Fatalf("adversarial total %d < sequential total %d",
			adv.Summary.TotalMessages, seq.Net().MessagesTotal())
	}
}

func TestWeightSeries(t *testing.T) {
	res, err := Run(centralFactory(8))
	if err != nil {
		t.Fatal(err)
	}
	ws, lambda, err := res.WeightSeries()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 8 {
		t.Fatalf("weight series length %d", len(ws))
	}
	if lambda <= 1 {
		t.Fatalf("lambda = %v, want > 1", lambda)
	}
	for i, w := range ws {
		if w <= 0 {
			t.Fatalf("w_%d = %v, want > 0", i, w)
		}
	}
}

func TestSampledMode(t *testing.T) {
	res, err := Run(centralFactory(16), SampleSize(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Full {
		t.Fatal("sampled run reported full")
	}
	if len(res.Steps) != 16 {
		t.Fatalf("steps = %d, want 16", len(res.Steps))
	}
	if err := VerifyProofStructure(res); err == nil {
		t.Fatal("proof structure must be rejected for sampled runs")
	}
	if _, _, err := res.WeightSeries(); err == nil {
		t.Fatal("weight series must be rejected for sampled runs")
	}
	// Bottleneck measurement still valid.
	if res.Summary.MaxLoad < int64(res.BoundK) {
		t.Fatalf("sampled bottleneck %d below bound %d", res.Summary.MaxLoad, res.BoundK)
	}
}

func TestSampledModeDeterministicPerSeed(t *testing.T) {
	a, err := Run(centralFactory(16), SampleSize(4), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(centralFactory(16), SampleSize(4), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Steps {
		if a.Steps[i].Chosen != b.Steps[i].Chosen {
			t.Fatalf("step %d differs between identical runs: %v vs %v",
				i, a.Steps[i].Chosen, b.Steps[i].Chosen)
		}
	}
}

// TestSampledCoversFullWhenLarge: a sample size >= n degenerates to the
// full adversary (identical committed sequence).
func TestSampledCoversFullWhenLarge(t *testing.T) {
	full, err := Run(centralFactory(8))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(centralFactory(8), SampleSize(100))
	if err != nil {
		t.Fatal(err)
	}
	if !sampled.Full {
		t.Fatal("oversized sample not treated as full")
	}
	for i := range full.Steps {
		if full.Steps[i].Chosen != sampled.Steps[i].Chosen {
			t.Fatalf("step %d: %v vs %v", i, full.Steps[i].Chosen, sampled.Steps[i].Chosen)
		}
	}
}

// TestProbeMatchesCommit: determinism means the probed list length of the
// chosen candidate equals the committed operation's measured length.
func TestProbeMatchesCommit(t *testing.T) {
	res, err := Run(ctreeFactory(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Steps {
		probed, ok := st.CandidateLens[st.Chosen]
		if !ok {
			t.Fatalf("step %d: chosen %v not among candidates", i, st.Chosen)
		}
		if probed != st.ListLen {
			t.Fatalf("step %d: probed length %d != committed %d (nondeterminism)", i, probed, st.ListLen)
		}
	}
}

// TestGreedyChoiceIsMaximal: the committed candidate's list is the longest
// among all probes at that step (ties broken by order).
func TestGreedyChoiceIsMaximal(t *testing.T) {
	res, err := Run(ctreeFactory(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Steps {
		for p, l := range st.CandidateLens {
			if l > st.ListLen {
				t.Fatalf("step %d: candidate %v had length %d > chosen %d", i, p, l, st.ListLen)
			}
		}
	}
}

// TestScheduleExploration: with a randomized latency model, exploring
// several schedules per candidate can only lengthen the executed lists,
// and the replayed commit still matches the probe exactly.
func TestScheduleExploration(t *testing.T) {
	asyncFactory := func() *counter.Sim {
		return core.NewForSize(8, core.WithSimOptions(
			sim.WithSeed(11),
			sim.WithLatency(sim.UniformLatency{Min: 1, Max: 7}),
		)).Sim
	}
	plain, err := Run(asyncFactory())
	if err != nil {
		t.Fatal(err)
	}
	explored, err := Run(asyncFactory(), ScheduleSeeds(4), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProofStructure(explored); err != nil {
		t.Fatal(err)
	}
	// Probe/commit replay fidelity under reseeding.
	for i, st := range explored.Steps {
		if st.CandidateLens[st.Chosen] != st.ListLen {
			t.Fatalf("step %d: replayed commit %d != probe %d", i, st.ListLen, st.CandidateLens[st.Chosen])
		}
	}
	// Exploration maximizes over a superset of schedules: the average
	// executed length cannot be systematically shorter. Allow equality.
	if explored.AvgExecutedLen()+1e-9 < plain.AvgExecutedLen() {
		t.Fatalf("exploration shortened executions: %.3f vs %.3f",
			explored.AvgExecutedLen(), plain.AvgExecutedLen())
	}
}

// TestScheduleExplorationDeterministic: identical options give identical
// adversarial sequences.
func TestScheduleExplorationDeterministic(t *testing.T) {
	mk := func() *counter.Sim {
		return core.NewForSize(8, core.WithSimOptions(
			sim.WithSeed(3),
			sim.WithLatency(sim.UniformLatency{Min: 1, Max: 5}),
		)).Sim
	}
	a, err := Run(mk(), ScheduleSeeds(3), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(), ScheduleSeeds(3), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Steps {
		if a.Steps[i].Chosen != b.Steps[i].Chosen || a.Steps[i].ListLen != b.Steps[i].ListLen {
			t.Fatalf("step %d diverged", i)
		}
	}
}

// TestRunRecordsItsOwnDAGs: Run needs no preparation of its subject. It
// holds the network's OnDeliver hook for the run, replacing one installed
// before, and leaves none behind.
func TestRunRecordsItsOwnDAGs(t *testing.T) {
	c := counter.OnSim(central.NewMachine(8))
	var before trace.Recorder
	c.Net().OnDeliver(before.Record)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 8 || res.Steps[0].ListLen != 2 {
		t.Fatalf("steps %d, first list length %d", len(res.Steps), res.Steps[0].ListLen)
	}
	id := sim.OpID(c.Net().Ops() + 1)
	if _, err := c.Inc(2); err != nil {
		t.Fatal(err)
	}
	for op := sim.OpID(1); op <= id; op++ {
		if before.DAG(op) != nil {
			t.Fatalf("op %d reached the hook installed before Run", op)
		}
	}
}

// TestReplayMatchesDirectProbe holds Run's replay pass to the method it
// replaced, one clone per step: for every registry row, commit the chosen
// sequence on a fresh counter and, before each step, probe q on a clone of
// it directly. q's list, its length, f_i and the loads must equal Run's.
func TestReplayMatchesDirectProbe(t *testing.T) {
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			c, err := registry.New(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := registry.New(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range res.Steps {
				if loads := ref.Net().Loads(); !slices.Equal(st.LoadsBefore, loads) {
					t.Fatalf("step %d: LoadsBefore %v, direct %v", i, st.LoadsBefore, loads)
				}
				cl, err := ref.Clone()
				if err != nil {
					t.Fatal(err)
				}
				var rec trace.Recorder
				cl.OnDeliver(rec.Record)
				id := sim.OpID(cl.Ops() + 1)
				if _, err := cl.Inc(res.Last); err != nil {
					t.Fatal(err)
				}
				dag := rec.DAG(id)
				list := dag.CommunicationList()
				if !slices.Equal(st.LastList, list) || st.LastListLen != dag.ListLength() {
					t.Fatalf("step %d: LastList %v (l=%d), direct %v (l=%d)",
						i, st.LastList, st.LastListLen, list, dag.ListLength())
				}
				if f := firstAffected(list, st.Participants); st.FirstAffected != f {
					t.Fatalf("step %d: FirstAffected %d, direct %d", i, st.FirstAffected, f)
				}
				if _, err := ref.Inc(st.Chosen); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestAvgExecutedLen(t *testing.T) {
	res, err := Run(centralFactory(4))
	if err != nil {
		t.Fatal(err)
	}
	// Central counter: each remote op has list length 2; the holder's own
	// op (length 0) is always picked last by the greedy rule.
	if got := res.AvgExecutedLen(); got <= 0 || got > 2 {
		t.Fatalf("avg executed length = %v", got)
	}
}

func TestFirstAffected(t *testing.T) {
	cases := []struct {
		list, parts []int
		want        int
	}{
		{[]int{5, 1, 2}, []int{2, 9}, 3},
		{[]int{5, 1, 2}, []int{5}, 1},
		{[]int{5, 1, 2}, []int{7}, 0},
		{nil, []int{1}, 0},
	}
	for _, c := range cases {
		if got := firstAffected(c.list, c.parts); got != c.want {
			t.Errorf("firstAffected(%v,%v) = %d, want %d", c.list, c.parts, got, c.want)
		}
	}
}

// TestBottleneckAtLeastBoundAllAlgorithms is the theorem's empirical core:
// for every implemented counter, the adversarial workload forces a
// bottleneck of at least k(n).
func TestBottleneckAtLeastBoundAllAlgorithms(t *testing.T) {
	factories := map[string]func(n int) *counter.Sim{
		"central":   centralFactory,
		"ctree":     ctreeFactory,
		"tokenring": ringFactory,
	}
	for name, f := range factories {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			res, err := Run(f(8))
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.MaxLoad < int64(res.BoundK) {
				t.Fatalf("%s: bottleneck %d below lower bound %d", name, res.Summary.MaxLoad, res.BoundK)
			}
		})
	}
}
