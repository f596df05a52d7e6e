package registry

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counter/countertest"
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
				if v, ok := a.OpValue(id); !ok || v != 0 {
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
			if cl.Name() != s.Name() || cl.N() != s.N() || cl.(counter.Async).Guarantee() != s.Guarantee() {
				t.Fatalf("%s: clone describes itself as %s/n=%d/%v, original %s/n=%d/%v", name,
					cl.Name(), cl.N(), cl.(counter.Async).Guarantee(), s.Name(), s.N(), s.Guarantee())
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
			c, err := New(name, n)
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
