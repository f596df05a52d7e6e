package flipbit

import (
	"testing"

	"distcount/internal/core"
	"distcount/internal/loadstat"
	"distcount/internal/sim"
)

func TestFlipAlternates(t *testing.T) {
	b := New(2)
	for i := 0; i < 10; i++ {
		p := sim.ProcID(i%b.N() + 1)
		v, err := b.Flip(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 1; v != want {
			t.Fatalf("flip %d returned %v, want %v", i, v, want)
		}
	}
}

func TestReadSeesPrecedingFlip(t *testing.T) {
	// The defining dependence on the preceding operation: a read by ANY
	// processor immediately after a flip by any other must see the flip.
	b := New(2)
	if _, err := b.Flip(3); err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= b.N(); p++ {
		v, err := b.Read(sim.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if !v {
			t.Fatalf("read by p%d missed the flip", p)
		}
	}
}

func TestCanonicalWorkloadLoadIsOK(t *testing.T) {
	// Each processor flips exactly once: the canonical workload. The
	// bottleneck must stay within the same O(k) budget as the counter's.
	for _, k := range []int{2, 3} {
		b := New(k)
		for p := 1; p <= b.N(); p++ {
			if _, err := b.Flip(sim.ProcID(p)); err != nil {
				t.Fatal(err)
			}
		}
		s := loadstat.SummarizeLoads(b.Tree().Net().Loads())
		budget := int64(2*(8*k+10) + 2)
		if s.MaxLoad > budget {
			t.Fatalf("k=%d: bottleneck %d exceeds O(k) budget %d", k, s.MaxLoad, budget)
		}
		if _, violations := b.Tree().Violations(); violations != 0 {
			v, _ := b.Tree().Violations()
			t.Fatalf("k=%d: lemma violations: %v", k, v)
		}
		// Parity check: n flips of an initially-false bit leave it at
		// n mod 2.
		v, err := b.Read(1)
		if err != nil {
			t.Fatal(err)
		}
		if want := b.N()%2 == 1; v != want {
			t.Fatalf("k=%d: bit = %v after %d flips", k, v, b.N())
		}
	}
}

func TestRetirementsHappenForBit(t *testing.T) {
	b := New(2)
	for p := 1; p <= b.N(); p++ {
		if _, err := b.Flip(sim.ProcID(p)); err != nil {
			t.Fatal(err)
		}
	}
	if b.Tree().Stats().Retirements == 0 {
		t.Fatal("no retirements; the O(k) mechanism is idle")
	}
}

func TestCloneIndependence(t *testing.T) {
	b := New(2)
	if _, err := b.Flip(1); err != nil {
		t.Fatal(err)
	}
	cp, err := b.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Flip(2); err != nil {
		t.Fatal(err)
	}
	// Original still sees exactly one flip.
	v, err := b.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !v {
		t.Fatal("original bit changed by clone's flip")
	}
	cv, err := cp.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if cv {
		t.Fatal("clone bit should be false after two flips")
	}
}

func TestNewForSize(t *testing.T) {
	b := NewForSize(50)
	if b.N() != 81 {
		t.Fatalf("n = %d, want 81", b.N())
	}
}

func TestUnexpectedRequestPanics(t *testing.T) {
	s := &bitState{}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Apply(42)
}

func TestOptionsForwarded(t *testing.T) {
	b := New(2, core.WithRetireAge(0))
	if b.Tree().RetireAge() != 0 {
		t.Fatal("option not forwarded to tree")
	}
}
