package registry

import (
	"slices"
	"strings"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

func TestNamesStable(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("have %d algorithms, want 14: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	// Exact + approximate partition the registry, and the approximate
	// family carries a positive default ε.
	if got := len(ExactNames()) + len(ApproximateNames()); got != len(names) {
		t.Fatalf("exact (%d) + approximate (%d) != all (%d)",
			len(ExactNames()), len(ApproximateNames()), len(names))
	}
	for _, name := range ApproximateNames() {
		eps, ok := DefaultEpsilon(name)
		if !ok || eps <= 0 || eps > 1 {
			t.Fatalf("%s: default epsilon %v (ok=%v) out of range", name, eps, ok)
		}
	}
	for _, name := range ExactNames() {
		if eps, ok := DefaultEpsilon(name); ok {
			t.Fatalf("%s listed exact but claims a default epsilon %v", name, eps)
		}
	}
	// The window-sensitive rows are exactly the request-merging schemes.
	var windowed []string
	for _, name := range append(names, "nope") {
		if WindowSensitive(name) {
			windowed = append(windowed, name)
		}
	}
	if want := []string{"combining", "difftree"}; !slices.Equal(windowed, want) {
		t.Fatalf("window-sensitive names %v, want %v", windowed, want)
	}
}

func TestUnknownName(t *testing.T) {
	_, err := New("nope", 8)
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// The error names the offending algorithm and the valid choices, so CLI
	// users can self-correct.
	if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "ctree") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := NewWith("nope", 8, Concurrent()); err == nil {
		t.Fatal("unknown algorithm accepted by NewWith")
	}
}

// TestAllNamesConcurrent: every registered algorithm builds in the
// concurrent regime, implements counter.Async, and completes interleaved
// operations started without intermediate quiescence.
func TestAllNamesConcurrent(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := NewWith(name, 8, Concurrent())
			if err != nil {
				t.Fatal(err)
			}
			n := a.N()
			completions := 0
			a.OnOpDone(func(sim.OpDone) { completions++ })
			for p := 1; p <= 4 && p <= n; p++ {
				a.Start(int64(p-1), sim.ProcID(p))
			}
			if err := a.(*counter.Sim).Net().Run(); err != nil {
				t.Fatal(err)
			}
			if want := min(4, n); completions != want {
				t.Fatalf("completions = %d, want %d", completions, want)
			}
		})
	}
}

// TestEveryNameValued: every registered algorithm reads a value back by
// operation id under the Async contract — once, and never for an operation
// it did not run.
func TestEveryNameValued(t *testing.T) {
	for _, name := range Names() {
		a, err := NewWith(name, 9, Concurrent())
		if err != nil {
			t.Fatalf("NewWith(%s): %v", name, err)
		}
		id := a.Start(0, 3)
		if err := a.(*counter.Sim).Net().Run(); err != nil {
			t.Fatal(err)
		}
		if v, ok := a.OpValue(id); !ok || v != 0 {
			t.Fatalf("%s: OpValue(%d) = (%d, %v), want (0, true)", name, id, v, ok)
		}
		if _, ok := a.OpValue(id); ok {
			t.Fatalf("%s: OpValue(%d) read a value twice", name, id)
		}
		if _, ok := a.OpValue(id + 1); ok {
			t.Fatalf("%s: OpValue read a value for an operation never started", name)
		}
	}
}

// TestEveryAlgorithmCountsCorrectly is the cross-implementation conformance
// sweep: every registered counter passes sequential verification and the
// Hot Spot Lemma on the canonical workload.
func TestEveryAlgorithmCountsCorrectly(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := New(name, 12)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Counter(c, counter.RandomOrder(c.N(), 99)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEveryAlgorithmUnderAsynchrony stresses all implementations with
// message reordering: random per-message delays (several seeds) and
// deterministic per-pair skew. The paper's model allows arbitrary finite
// delays, so correctness and the Hot Spot Lemma must survive any of them.
func TestEveryAlgorithmUnderAsynchrony(t *testing.T) {
	latencies := map[string]func(seed uint64) []sim.Option{
		"uniform": func(seed uint64) []sim.Option {
			return []sim.Option{
				sim.WithSeed(seed),
				sim.WithLatency(sim.UniformLatency{Min: 1, Max: 13}),
			}
		},
		"skew": func(seed uint64) []sim.Option {
			return []sim.Option{
				sim.WithSeed(seed),
				sim.WithLatency(sim.SkewLatency{Max: 9}),
			}
		},
	}
	for _, name := range Names() {
		for latName, mk := range latencies {
			for seed := uint64(1); seed <= 3; seed++ {
				c, err := New(name, 10, mk(seed)...)
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.Counter(c, counter.RandomOrder(c.N(), seed)); err != nil {
					t.Fatalf("%s/%s/seed=%d: %v", name, latName, seed, err)
				}
			}
		}
	}
}

// TestEveryAlgorithmCloneable: the adversary needs cloning everywhere.
func TestEveryAlgorithmCloneable(t *testing.T) {
	for _, name := range Names() {
		c, err := New(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Clone(); err != nil { // by type: New returns *counter.Sim
			t.Fatalf("%s: clone failed: %v", name, err)
		}
	}
}

func TestSimOptionsForwarded(t *testing.T) {
	for _, name := range Names() {
		c, err := New(name, 8, sim.WithServiceTime(3))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Net().ServiceTimeOf(1); got != 3 {
			t.Fatalf("%s: service option not forwarded (service time %d)", name, got)
		}
	}
}

// TestSimOptionsRejectedOnRT: the rt backend has no simulator options, so a
// Config that carries them there is an error rather than silently dropped.
func TestSimOptionsRejectedOnRT(t *testing.T) {
	cfg := Sequential(sim.WithSeed(3))
	cfg.Backend = "rt"
	c, err := NewWith("central", 4, cfg)
	if err == nil {
		c.(interface{ Close() }).Close()
		t.Fatal("simulator options on the rt backend were accepted")
	}
	cfg.SimOpts = nil
	c, err = NewWith("central", 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.(interface{ Close() }).Close()
}
