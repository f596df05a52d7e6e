package registry

import (
	"reflect"
	"testing"

	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/counter/countertest"
	"distcount/internal/counters/approx"
	"distcount/internal/counters/central"
	"distcount/internal/counters/cnet"
	"distcount/internal/counters/combining"
	"distcount/internal/counters/difftree"
	"distcount/internal/counters/quorumctr"
	"distcount/internal/counters/tokenring"
	"distcount/internal/quorum"
	"distcount/internal/sim"
)

// The tests below cover the single construction path: a registry row builds
// one counter.Machine, and the sim backend is always counter.OnSim of it.

// TestEveryAlgorithmStartsInBothRegimes: a counter from either regime —
// including the default, sequential one that distcount.New and registry.New
// hand out — accepts Start, so engine.Run can drive it. (The sequential
// ctree used to be built with its lemma checker on, whose Start panicked.)
func TestEveryAlgorithmStartsInBothRegimes(t *testing.T) {
	regimes := map[string]func(...sim.Option) Config{"sequential": Sequential, "concurrent": Concurrent}
	for _, name := range Names() {
		for regime, cfg := range regimes {
			t.Run(name+"/"+regime, func(t *testing.T) {
				a, err := NewWith(name, 8, cfg())
				if err != nil {
					t.Fatal(err)
				}
				id := a.Start(0, 2)
				if err := a.Net().Run(); err != nil {
					t.Fatal(err)
				}
				if v, ok := a.(counter.Valued).OpValue(id); !ok || v != 0 {
					t.Fatalf("first operation's value = (%d, %v), want (0, true)", v, ok)
				}
			})
		}
	}
}

// TestSimBackendIsCounterSim: the table rows agree with the machines they
// build, every sim-backend counter is the one wrapper, and a clone — whose
// machine is re-described by the copied protocol — still carries the same
// name, size and guarantee.
func TestSimBackendIsCounterSim(t *testing.T) {
	for _, name := range Names() {
		for _, cfg := range []Config{Sequential(), Concurrent(), {Backend: "sim", Epsilon: 0.5}} {
			a, err := NewWith(name, 9, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, ok := a.(*counter.Sim)
			if !ok {
				t.Fatalf("%s: sim backend built %T, want *counter.Sim", name, a)
			}
			if s.Name() != name {
				t.Fatalf("row %q builds a machine named %q", name, s.Name())
			}
			cl, err := s.Clone()
			if err != nil {
				t.Fatalf("%s: clone: %v", name, err)
			}
			if cl.Name() != s.Name() || cl.N() != s.N() || cl.(counter.Valued).Guarantee() != s.Guarantee() {
				t.Fatalf("%s: clone describes itself as %s/n=%d/%v, original %s/n=%d/%v", name,
					cl.Name(), cl.N(), cl.(counter.Valued).Guarantee(), s.Name(), s.N(), s.Guarantee())
			}
		}
	}
}

// TestRegistryBuiltConformance runs the shared per-package suites over what
// the registry hands out, so the one path is covered for every exact
// algorithm rather than once per typed constructor.
func TestRegistryBuiltConformance(t *testing.T) {
	for _, name := range ExactNames() {
		factory := func(n int) counter.Counter {
			c, err := New(name, n, sim.WithTracing())
			if err != nil {
				panic(err) // a listed name cannot be unknown; t belongs to another goroutine here
			}
			return c
		}
		countertest.Conformance(t, factory, 8, 13)
		t.Run(name+"/clone-independence", func(t *testing.T) {
			countertest.CloneIndependence(t, factory, 8)
		})
	}
}

// TestTypedHandleMatchesRegistry: a package's typed constructor and its
// registry row run the same protocol the same way — same values, same
// message total, same per-processor send and receive counts.
func TestTypedHandleMatchesRegistry(t *testing.T) {
	const n = 8
	typed := map[string]counter.Counter{
		"central":          central.New(n),
		"tokenring":        tokenring.New(n),
		"ctree":            core.NewForSize(n),
		"combining":        combining.New(n),
		"cnet":             cnet.New(n),
		"cnet-periodic":    cnet.New(n, cnet.WithConstruction(cnet.Periodic)),
		"difftree":         difftree.New(n),
		"gxu-threshold":    approx.NewThreshold(n),
		"css-sample":       approx.NewSample(n),
		"quorum-singleton": quorumctr.New(quorum.NewSingleton(n)),
		"quorum-majority":  quorumctr.New(quorum.NewMajority(n)),
		"quorum-grid":      quorumctr.New(quorum.NewGrid(n)),
		"quorum-tree":      quorumctr.New(quorum.NewTree(n)),
		"quorum-wall":      quorumctr.New(quorum.NewWall(n)),
	}
	for _, name := range Names() {
		a, ok := typed[name]
		if !ok {
			t.Fatalf("%s: no typed constructor listed", name)
		}
		b, err := New(name, n)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != b.Name() || a.N() != b.N() {
			t.Fatalf("typed %s/n=%d vs registry %s/n=%d", a.Name(), a.N(), b.Name(), b.N())
		}
		order := counter.RandomOrder(a.N(), 5)
		ra, err := counter.RunSequence(a, order)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := counter.RunSequence(b, order)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra.Values, rb.Values) {
			t.Fatalf("%s: values differ: typed %v, registry %v", name, ra.Values, rb.Values)
		}
		if a.Net().MessagesTotal() != b.Net().MessagesTotal() {
			t.Fatalf("%s: message totals differ: typed %d, registry %d", name, a.Net().MessagesTotal(), b.Net().MessagesTotal())
		}
		if !reflect.DeepEqual(a.Net().Sent(), b.Net().Sent()) || !reflect.DeepEqual(a.Net().Recv(), b.Net().Recv()) {
			t.Fatalf("%s: per-processor loads differ between the typed handle and the registry row", name)
		}
	}
}
