package quorum

import (
	"slices"
	"testing"
	"testing/quick"

	"distcount/internal/loadstat"
)

func allSystems(n int) []System {
	return []System{
		NewSingleton(n),
		NewMajority(n),
		NewGrid(n),
		NewFPP(n),
		NewTree(n),
		NewWall(n),
	}
}

// TestIntersectionProperty is the defining property: every two quorums of a
// system intersect. Verified exhaustively over a rotation prefix for a
// range of universe sizes, including awkward non-square ones.
func TestIntersectionProperty(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 10, 16, 17, 33, 64, 100} {
		for _, s := range allSystems(n) {
			if err := Verify(s, 60); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		}
	}
}

// TestIntersectionRandomPairs property-tests intersection on arbitrary
// rotation indices, not just a prefix.
func TestIntersectionRandomPairs(t *testing.T) {
	sys := allSystems(49)
	if err := quick.Check(func(iRaw, jRaw uint16, which uint8) bool {
		s := sys[int(which)%len(sys)]
		a := s.Quorum(int(iRaw))
		b := s.Quorum(int(jRaw))
		return Intersect(a, b)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectHelper(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 3, 5}, []int{2, 4, 5}, true},
		{[]int{1, 2}, []int{3, 4}, false},
		{nil, []int{1}, false},
		{[]int{7}, []int{7}, true},
	}
	for _, c := range cases {
		if got := Intersect(c.a, c.b); got != c.want {
			t.Errorf("Intersect(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestQuorumSizes(t *testing.T) {
	const n = 100
	// Majority: exactly n/2+1.
	if got := len(NewMajority(n).Quorum(3)); got != 51 {
		t.Errorf("majority quorum size = %d, want 51", got)
	}
	// Grid: about 2√n - 1.
	if got := MaxQuorumSize(NewGrid(n), 40); got > 2*10 {
		t.Errorf("grid quorum size = %d, want <= 20", got)
	}
	// Tree: between log2(n) and n/2+1 by construction; typically small.
	if got := MaxQuorumSize(NewTree(n), 40); got > 64 {
		t.Errorf("tree quorum size = %d, suspiciously large", got)
	}
	// Wall: O(√n)-ish.
	if got := MaxQuorumSize(NewWall(n), 40); got > 30 {
		t.Errorf("wall quorum size = %d, want <= 30", got)
	}
}

// TestSingletonBottleneck: the singleton system concentrates all load on
// processor 1 — the quorum analogue of the paper's centralized counter.
func TestSingletonBottleneck(t *testing.T) {
	s := NewSingleton(20)
	loads := LoadProfile(s, 100)
	if loads[1] != 100 {
		t.Fatalf("loads[1] = %d, want 100", loads[1])
	}
	for p := 2; p <= 20; p++ {
		if loads[p] != 0 {
			t.Fatalf("loads[%d] = %d, want 0", p, loads[p])
		}
	}
}

// TestMajorityLoadBalanced: rotating majorities spread load evenly (within
// a factor of 2 over a full rotation multiple).
func TestMajorityLoadBalanced(t *testing.T) {
	s := NewMajority(10)
	loads := LoadProfile(s, 100) // 10 full rotations
	sum := loadstat.SummarizeLoads(loads)
	if sum.MaxLoad > 2*sum.MinLoad {
		t.Fatalf("majority load imbalance: min %d max %d", sum.MinLoad, sum.MaxLoad)
	}
}

// TestTreeRootHeavier: tree quorums are small but root-heavy — the paper's
// point that small quorums (messages) do not imply a small bottleneck.
func TestTreeRootHeavier(t *testing.T) {
	s := NewTree(63)
	loads := LoadProfile(s, 400)
	rootLoad := loads[1] // tree position 0 maps to processor 1
	var others int64
	for p := 2; p <= 63; p++ {
		others += loads[p]
	}
	avgOther := float64(others) / 62
	if float64(rootLoad) < 3*avgOther {
		t.Fatalf("tree root load %d not clearly above average %v", rootLoad, avgOther)
	}
}

// TestGridBeatsMajorityOnWork: grid quorums are asymptotically smaller than
// majorities, so total work over many ops is lower.
func TestGridBeatsMajorityOnWork(t *testing.T) {
	const n, ops = 100, 200
	var gridWork, majWork int64
	for _, l := range LoadProfile(NewGrid(n), ops) {
		gridWork += l
	}
	for _, l := range LoadProfile(NewMajority(n), ops) {
		majWork += l
	}
	if gridWork >= majWork {
		t.Fatalf("grid work %d not below majority work %d", gridWork, majWork)
	}
}

func TestGridShape(t *testing.T) {
	g := NewGrid(100)
	if g.Rows() != 10 || g.Cols() != 10 {
		t.Fatalf("grid 100 = %dx%d, want 10x10", g.Rows(), g.Cols())
	}
	g2 := NewGrid(12)
	if g2.Rows()*g2.Cols() < 12 {
		t.Fatalf("grid 12 = %dx%d does not cover universe", g2.Rows(), g2.Cols())
	}
}

func TestWallShape(t *testing.T) {
	w := NewWall(10)
	// Rows 1,2,3,4: total 10; no fold needed.
	if w.RowCount() != 4 {
		t.Fatalf("wall rows = %d, want 4", w.RowCount())
	}
	// n=11 would leave a short trailing row; it must fold.
	w2 := NewWall(11)
	if w2.RowCount() != 4 {
		t.Fatalf("wall(11) rows = %d, want 4 (folded)", w2.RowCount())
	}
}

func TestDeterministicRotation(t *testing.T) {
	for _, s := range allSystems(30) {
		a, b := s.Quorum(17), s.Quorum(17)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic quorum size", s.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic quorum", s.Name())
			}
		}
	}
}

func TestVerifyDetectsViolation(t *testing.T) {
	if err := Verify(brokenSystem{}, 4); err == nil {
		t.Fatal("Verify accepted disjoint quorums")
	}
}

type brokenSystem struct{}

func (brokenSystem) Name() string { return "broken" }
func (brokenSystem) N() int       { return 10 }
func (brokenSystem) Quorum(i int) []int {
	return []int{i%10 + 1} // rotating singletons: pairwise disjoint
}

func TestVerifyRejectsMalformed(t *testing.T) {
	if err := Verify(emptySystem{}, 2); err == nil {
		t.Fatal("Verify accepted empty quorum")
	}
	if err := Verify(outOfRangeSystem{}, 2); err == nil {
		t.Fatal("Verify accepted out-of-range element")
	}
	if err := Verify(NewMajority(5), 0); err == nil {
		t.Fatal("Verify accepted zero rotations")
	}
}

type emptySystem struct{}

func (emptySystem) Name() string     { return "empty" }
func (emptySystem) N() int           { return 5 }
func (emptySystem) Quorum(int) []int { return nil }

type outOfRangeSystem struct{}

func (outOfRangeSystem) Name() string     { return "oor" }
func (outOfRangeSystem) N() int           { return 5 }
func (outOfRangeSystem) Quorum(int) []int { return []int{6} }

func TestNewPanicsOnBadN(t *testing.T) {
	for name, fn := range map[string]func(){
		"singleton": func() { NewSingleton(0) },
		"majority":  func() { NewMajority(0) },
		"grid":      func() { NewGrid(-1) },
		"tree":      func() { NewTree(0) },
		"wall":      func() { NewWall(0) },
	} {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNormalize(t *testing.T) {
	got := normalize([]int{5, 1, 5, 3, 1})
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("normalize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("normalize = %v, want %v", got, want)
		}
	}
}

// TestMajorityRotationSortFree holds Majority.Quorum, which writes its two
// ascending runs directly, to the sort-and-dedup of the rotating block it
// replaced, element for element.
func TestMajorityRotationSortFree(t *testing.T) {
	for n := 1; n <= 130; n++ {
		m := NewMajority(n)
		for i := 0; i < 2*n; i++ {
			block := make([]int, n/2+1)
			for j := range block {
				block[j] = (i%n+j)%n + 1
			}
			want := normalize(block)
			if got := m.Quorum(i); !slices.Equal(got, want) {
				t.Fatalf("n=%d i=%d: Quorum = %v, want %v", n, i, got, want)
			}
		}
	}
}
