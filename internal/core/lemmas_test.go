package core

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/loadstat"
	"distcount/internal/sim"
)

// This file verifies every lemma of Section 4 of the paper over the
// canonical workload (n inc operations, one per processor) for several
// arities and operation orders. Together these establish the Bottleneck
// Theorem empirically: each processor receives and sends at most O(k)
// messages, matching the Ω(k) lower bound.

// runCanonical executes the canonical workload in a few different orders and
// returns the trees afterwards.
func runCanonical(t *testing.T, k int) []*Tree {
	t.Helper()
	out := make([]*Tree, 0, 3)
	orders := [][]sim.ProcID{
		counter.SequentialOrder(SizeForK(k)),
		counter.ReverseOrder(SizeForK(k)),
		counter.RandomOrder(SizeForK(k), 0xC0FFEE),
	}
	for _, order := range orders {
		c := New(k)
		if _, err := counter.RunSequence(c, order); err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

func lemmaKs(t *testing.T) []int {
	if testing.Short() {
		return []int{2, 3}
	}
	return []int{2, 3, 4}
}

// TestRetirementLemma: "No node retires more than once during any single
// inc operation."
func TestRetirementLemma(t *testing.T) {
	for _, k := range lemmaKs(t) {
		for _, c := range runCanonical(t, k) {
			if got := c.RetirePerOpMax(); got > 1 {
				t.Fatalf("k=%d: a node retired %d times in one op", k, got)
			}
			if _, count := c.Violations(); count != 0 {
				v, _ := c.Violations()
				t.Fatalf("k=%d: %d violations, first: %v", k, count, v)
			}
		}
	}
}

// TestGrowOldLemma: "If an inner node does not retire during an inc
// operation it sends and receives at most four messages."
func TestGrowOldLemma(t *testing.T) {
	for _, k := range lemmaKs(t) {
		for _, c := range runCanonical(t, k) {
			if got := c.GrowOldMax(); got > 4 {
				t.Fatalf("k=%d: non-retiring node handled %d messages in one op, bound is 4", k, got)
			}
		}
	}
}

// TestNumberOfRetirementsLemma: "During the entire sequence of n inc
// operations each node on level i retires at most k^(k-i) - 1 times" (i.e.
// fewer times than its pool has replacement processors; the root fewer than
// k^k times). Equivalently, pools never exhaust.
func TestNumberOfRetirementsLemma(t *testing.T) {
	for _, k := range lemmaKs(t) {
		for _, c := range runCanonical(t, k) {
			if c.Stats().PoolExhausted != 0 {
				t.Fatalf("k=%d: %d pool exhaustions", k, c.Stats().PoolExhausted)
			}
			for _, nd := range c.Nodes() {
				if nd.Retired > nd.PoolSize-1 {
					t.Fatalf("k=%d: node (level %d, pos %d) retired %d times, pool %d",
						k, nd.Level, nd.Pos, nd.Retired, nd.PoolSize)
				}
				if nd.Level == k && nd.Retired != 0 {
					t.Fatalf("k=%d: level-k node retired %d times; they must never retire", k, nd.Retired)
				}
			}
		}
	}
}

// TestLeafNodeWorkLemma: a leaf exchanges exactly two messages for its own
// operation plus one per parent retirement; at the default threshold
// level-k nodes never retire, so every leaf-role load is exactly 2.
func TestLeafNodeWorkLemma(t *testing.T) {
	for _, k := range lemmaKs(t) {
		for _, c := range runCanonical(t, k) {
			for p := 1; p <= c.N(); p++ {
				if got := c.LeafLoad(sim.ProcID(p)); got != 2 {
					t.Fatalf("k=%d: leaf-role load of processor %d is %d, want 2", k, p, got)
				}
			}
		}
	}
}

// TestPureLeafProcessorsLoadTwo: processors that never host an inner node
// have total network load exactly 2 (their leaf role is all they do). Only
// meaningful for k >= 3, where the replacement pools are large enough to
// leave some processors unused.
func TestPureLeafProcessorsLoadTwo(t *testing.T) {
	c := New(3)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
		t.Fatal(err)
	}
	pureLeaves := 0
	for p := 1; p <= c.N(); p++ {
		pid := sim.ProcID(p)
		if c.HostedInner(pid) {
			continue
		}
		pureLeaves++
		if got := c.Net().Load(pid); got != 2 {
			t.Fatalf("pure-leaf processor %d has load %d, want 2", p, got)
		}
	}
	if pureLeaves == 0 {
		t.Fatal("no pure-leaf processors at k=3; lemma untested")
	}
	t.Logf("k=3: %d of %d processors never hosted an inner node", pureLeaves, c.N())
}

// TestInnerNodeWorkLemma: "Each processor receives and sends at most O(k)
// messages while it works for a single inner node." We bound the total of
// handoff-in (k+2), aged traffic (< 4k + the k+3 slack of the Retirement
// Lemma) and handoff-out (2k+3): comfortably below 8k+10 per role, and each
// processor holds at most two roles plus its leaf — the Bottleneck Theorem
// constant. Here we assert the per-run bottleneck against that explicit
// budget; the tighter measured constants are reported by experiment E5.
func TestInnerNodeWorkAndBottleneckTheorem(t *testing.T) {
	for _, k := range lemmaKs(t) {
		for _, c := range runCanonical(t, k) {
			s := loadstat.Summarize(c.Net().Sent(), c.Net().Recv())
			budget := int64(2*(8*k+10) + 2)
			if s.MaxLoad > budget {
				t.Fatalf("k=%d: bottleneck load %d exceeds O(k) budget %d", k, s.MaxLoad, budget)
			}
		}
	}
}

// TestBottleneckScalesWithKNotN: the defining property — growing n by a
// factor k^2-ish grows the bottleneck only by the k-increment, so the ratio
// bottleneck/n must fall sharply while bottleneck/k stays bounded.
func TestBottleneckScalesWithKNotN(t *testing.T) {
	type point struct {
		k       int
		n       int
		maxLoad int64
	}
	points := make([]point, 0, 3)
	for _, k := range lemmaKs(t) {
		c := New(k)
		if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
			t.Fatal(err)
		}
		s := loadstat.Summarize(c.Net().Sent(), c.Net().Recv())
		points = append(points, point{k: k, n: c.N(), maxLoad: s.MaxLoad})
	}
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		nGrowth := float64(cur.n) / float64(prev.n)
		loadGrowth := float64(cur.maxLoad) / float64(prev.maxLoad)
		if loadGrowth > nGrowth/2 {
			t.Fatalf("bottleneck grew by %.1fx while n grew by %.1fx: not sublinear (points %+v)",
				loadGrowth, nGrowth, points)
		}
	}
}

// TestForwardingOverheadBounded: the successor-forwarding handshake must
// cost at most a constant number of extra messages per retirement (the
// paper: "a constant number of extra messages for each of the messages").
func TestForwardingOverheadBounded(t *testing.T) {
	for _, k := range lemmaKs(t) {
		for _, c := range runCanonical(t, k) {
			st := c.Stats()
			if st.Forwarded > 2*st.Retirements+int64(k) {
				t.Fatalf("k=%d: %d forwarded messages for %d retirements", k, st.Forwarded, st.Retirements)
			}
		}
	}
}

// TestRootRetirementCount: the root retires fewer than k^k times — in fact
// at most about (2n + k^k)/(4k) — so its pool of k^k processors suffices.
func TestRootRetirementCount(t *testing.T) {
	for _, k := range lemmaKs(t) {
		c := New(k)
		if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
			t.Fatal(err)
		}
		root := c.Nodes()[0]
		if root.PoolSize != pow(k, k) {
			t.Fatalf("k=%d: root pool %d, want %d", k, root.PoolSize, pow(k, k))
		}
		if root.Retired >= root.PoolSize {
			t.Fatalf("k=%d: root retired %d times, pool only %d", k, root.Retired, root.PoolSize)
		}
		if root.Retired == 0 {
			t.Fatalf("k=%d: root never retired; mechanism untested", k)
		}
	}
}

// TestPerLevelRetirementProfile reports and bounds the per-level maximum
// retirement counts against the k^(k-i)-1 pool budget.
func TestPerLevelRetirementProfile(t *testing.T) {
	k := 3
	c := New(k)
	if _, err := counter.RunSequence(c, counter.RandomOrder(c.N(), 1)); err != nil {
		t.Fatal(err)
	}
	maxPerLevel := make([]int, k+1)
	for _, nd := range c.Nodes() {
		if nd.Retired > maxPerLevel[nd.Level] {
			maxPerLevel[nd.Level] = nd.Retired
		}
	}
	for level, got := range maxPerLevel {
		budget := pow(k, k-level) - 1
		if level == 0 {
			budget = pow(k, k) - 1
		}
		if got > budget {
			t.Fatalf("level %d: max retirements %d exceed budget %d", level, got, budget)
		}
	}
	t.Logf("k=%d per-level max retirements: %v", k, maxPerLevel)
}

// TestGoldenStatsK2 pins the fully deterministic statistics of the k=2
// canonical sequential run as a regression anchor: any change to the
// protocol's message pattern shows up here first.
func TestGoldenStatsK2(t *testing.T) {
	c := New(2)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Retirements != 4 || st.Forwarded != 4 || st.PoolExhausted != 0 {
		t.Fatalf("stats changed: %+v (want 4 retirements, 4 forwarded, 0 exhausted)", st)
	}
	s := loadstat.SummarizeLoads(c.Net().Loads())
	if s.MaxLoad != 35 || s.Bottleneck != 1 {
		t.Fatalf("bottleneck changed: p%d load %d (want p1 load 35)", s.Bottleneck, s.MaxLoad)
	}
	if got := c.Net().MessagesTotal(); got != 62 {
		t.Fatalf("total messages changed: %d (want 62)", got)
	}
}

// TestForwardingActuallyHappens: the handshake path is exercised by the
// canonical k=2 run (adjacent nodes retire in one cascade, so a NewID gets
// addressed to an already-retired processor and must be forwarded).
func TestForwardingActuallyHappens(t *testing.T) {
	c := New(2)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Forwarded == 0 {
		t.Fatal("no forwarded messages; the handshake path is untested")
	}
}

// TestLoadSumConsistency: sum of loads equals twice the message count
// (every message has one sender and one receiver).
func TestLoadSumConsistency(t *testing.T) {
	c := New(2)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range c.Net().Loads() {
		sum += l
	}
	if sum != 2*c.Net().MessagesTotal() {
		t.Fatalf("sum of loads %d != 2 * %d", sum, c.Net().MessagesTotal())
	}
}

// TestRepeatedCanonicalRounds pins what the tree counter does past the n
// operations the lemmas speak of: the canonical workload repeated, each
// processor once per round, with the round's bottleneck m_b the largest
// load increase of the round. Round one is the paper's regime (m_b = O(k),
// no pool exhausted). From round two on the replacement pools run out, the
// exhausted nodes soldier on with their current processor, and m_b climbs
// to central's order — the counter leaves its proven regime, silently in
// every loaded run. The figures are today's behaviour, not a target: a fix
// that keeps the pools turning moves every round after the first.
func TestRepeatedCanonicalRounds(t *testing.T) {
	for _, tc := range []struct {
		k         int
		mb, pools [4]int64 // per round: m_b, and PoolExhausted after it
	}{
		{3, [4]int64{56, 75, 218, 218}, [4]int64{0, 46, 88, 154}},
		{4, [4]int64{72, 437, 2562, 2562}, [4]int64{0, 481, 993, 1761}},
	} {
		c := New(tc.k)
		prev := c.Net().Loads()
		for r := range tc.mb {
			for _, p := range counter.SequentialOrder(c.N()) {
				if _, err := c.Inc(p); err != nil {
					t.Fatal(err)
				}
			}
			cur := c.Net().Loads()
			var mb int64
			for p := range cur {
				mb = max(mb, cur[p]-prev[p])
			}
			prev = cur
			if got := c.Stats().PoolExhausted; mb != tc.mb[r] || got != tc.pools[r] {
				t.Fatalf("n=%d round %d: m_b %d, PoolExhausted %d; want %d and %d",
					c.N(), r+1, mb, got, tc.mb[r], tc.pools[r])
			}
		}
	}
}
