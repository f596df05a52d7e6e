// Package registry provides name-based construction of every counter
// implementation in the repository, used by the command-line tools and the
// experiment harness to iterate over algorithms uniformly.
//
// There is one construction path. Every registered algorithm is one table
// row holding one closure that builds its counter.Machine — the
// backend-independent protocol, and all an algorithm package exports — and
// NewWith hands that machine to the backend the Config names: counter.OnSim
// for the simulator, rt.New for the real-hardware runtime. A protocol on rt
// is therefore by construction the protocol on sim, and either reads each
// operation's value back by id (counter.Async.OpValue). The Config selects the construction regime — sequential
// (combining/diffraction windows closed) or concurrent (windows open so
// request merging engages); NewWith(name, n, Concurrent()) and
// NewWith(name, n, Sequential()) are the two idiomatic calls, and New is
// the sequential shorthand kept for the paper-model tools (the same machine
// on counter.OnSim, returned as the concrete *counter.Sim). Either regime's
// counter supports both Inc and Start.
package registry

import (
	"fmt"

	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/counters/approx"
	"distcount/internal/counters/central"
	"distcount/internal/counters/cnet"
	"distcount/internal/counters/combining"
	"distcount/internal/counters/difftree"
	"distcount/internal/counters/quorumctr"
	"distcount/internal/counters/tokenring"
	"distcount/internal/quorum"
	"distcount/internal/rt"
	"distcount/internal/sim"
)

// Config selects the construction regime of a counter. The zero value is
// the sequential regime of the paper's model.
type Config struct {
	// Window is the combining/diffraction window in simulated ticks for the
	// algorithms whose effectiveness depends on concurrency (combining
	// trees and diffracting prisms merge requests that arrive within the
	// window). Zero keeps the windows closed — the sequential regime, in
	// which nothing ever merges.
	Window int64
	// SimOpts are forwarded to the simulated network (seed, latency model).
	// The rt backend has no such knobs: NewWith rejects a
	// Config that sets them together with Backend "rt". What both backends
	// share — service cost, faults — has its own field below.
	SimOpts []sim.Option
	// Backend selects the execution backend: "" or "sim" builds the
	// discrete-event simulator (deterministic, simulated time); "rt" builds
	// the real-hardware runtime (internal/rt: mailboxes on a worker pool),
	// which runs the identical protocol state machine on real cores with
	// wall-clock time.
	Backend string
	// Service is the per-processor cost, in ticks, of handling one network
	// message, on whichever backend builds: sim.WithServiceProfile on the
	// simulator (applied after SimOpts, so it wins over a service option
	// there), rt.WithServiceProfile on the runtime, which busy-spins the
	// worker holding the receiving processor. Nil means no service cost.
	Service func(p sim.ProcID) int64
	// Faults installs a fault-injection plan on whichever backend builds:
	// sim.WithFaults on the simulator, rt.WithFaults on the runtime. Both
	// backends share the decision core (sim.FaultInjector), so a plan made
	// of deterministic Nth rules produces the identical drop/duplicate
	// schedule on either. Nil (or an empty plan) injects nothing.
	Faults *sim.FaultPlan
	// Epsilon overrides the claimed relative error bound of the
	// approximate algorithms (gxu-threshold, css-sample). Zero keeps each
	// algorithm's own default (see DefaultEpsilon); exact algorithms
	// ignore it.
	Epsilon float64
}

// Sequential returns the construction regime of the paper's model: the zero
// Config (windows closed) plus the given network options. The ctree lemma
// instrumentation is not part of either regime — it only records, and its
// readouts live on core.Tree (core.New), the simulated counter the lemma
// experiments build directly.
func Sequential(simOpts ...sim.Option) Config {
	return Config{SimOpts: simOpts}
}

// Concurrent returns the construction regime of the workload engine:
// combining/diffraction windows open at DefaultWindow.
func Concurrent(simOpts ...sim.Option) Config {
	return Config{Window: DefaultWindow, SimOpts: simOpts}
}

// DefaultWindow is the combining/diffraction window, in simulated ticks,
// used by the concurrent regime. One network hop is one tick under the
// default unit latency.
//
// Tuned by the knee-vs-n scaling study (loadgen -study scaling; see
// docs/EXPERIMENTS.md §4): at the largest studied n, widening the window
// from 4 to 16 raises the saturation knee of both request-merging schemes
// (combining ≈1.2→1.4 ops/tick, difftree ≈1.2→1.3 at n=64, service 1),
// while 64 gains only for difftree, costs combining capacity on most
// seeds, and multiplies unloaded latency by the window depth. 16 is the
// measured sweet spot.
const DefaultWindow = 16

// algorithm is one registry row: the machine constructor plus the metadata
// the study layer keys on.
type algorithm struct {
	name string
	// machine builds the backend-independent protocol for (at least) n
	// processors; NewWith wraps it in the configured backend. The machine's
	// N may exceed n for algorithms with structural size constraints (the
	// paper's tree).
	machine func(n int, cfg Config) counter.Machine
	// windowed marks the constructions that consume Config.Window — the
	// request-merging schemes, whose capacity is set by how many concurrent
	// requests a node may merge rather than by a fixed per-op message count.
	windowed bool
	// defaultEps is the bound an ε-approximate algorithm claims when
	// Config.Epsilon is zero; exact algorithms leave it zero.
	defaultEps float64
}

func (a algorithm) approx() bool { return a.defaultEps > 0 }

func quorumRow(name string, sys func(n int) quorum.System) algorithm {
	return algorithm{name: name, machine: func(n int, _ Config) counter.Machine {
		return quorumctr.NewMachine(sys(n))
	}}
}

// algorithms is the registry, sorted by name. Keep in sync with the
// README's "algorithms" section.
var algorithms = []algorithm{
	{name: "central", machine: func(n int, _ Config) counter.Machine {
		return central.NewMachine(n)
	}},
	{name: "cnet", machine: func(n int, _ Config) counter.Machine {
		return cnet.NewMachine(n)
	}},
	{name: "cnet-periodic", machine: func(n int, _ Config) counter.Machine {
		return cnet.NewMachine(n, cnet.WithConstruction(cnet.Periodic))
	}},
	{name: "combining", windowed: true, machine: func(n int, cfg Config) counter.Machine {
		return combining.NewMachine(n, combining.WithWindow(cfg.Window))
	}},
	{name: "css-sample", defaultEps: approx.DefaultEpsilonSample, machine: func(n int, cfg Config) counter.Machine {
		return approx.NewSampleMachine(n, approx.WithEpsilon(cfg.Epsilon))
	}},
	{name: "ctree", machine: func(n int, _ Config) counter.Machine {
		return core.NewMachine(n)
	}},
	{name: "difftree", windowed: true, machine: func(n int, cfg Config) counter.Machine {
		return difftree.NewMachine(n, difftree.WithWindow(cfg.Window))
	}},
	{name: "gxu-threshold", defaultEps: approx.DefaultEpsilonThreshold, machine: func(n int, cfg Config) counter.Machine {
		return approx.NewThresholdMachine(n, approx.WithEpsilon(cfg.Epsilon))
	}},
	quorumRow("quorum-grid", func(n int) quorum.System { return quorum.NewGrid(n) }),
	quorumRow("quorum-majority", func(n int) quorum.System { return quorum.NewMajority(n) }),
	quorumRow("quorum-singleton", func(n int) quorum.System { return quorum.NewSingleton(n) }),
	quorumRow("quorum-tree", func(n int) quorum.System { return quorum.NewTree(n) }),
	quorumRow("quorum-wall", func(n int) quorum.System { return quorum.NewWall(n) }),
	{name: "tokenring", machine: func(n int, _ Config) counter.Machine {
		return tokenring.NewMachine(n)
	}},
}

// lookup finds the named row; ok is false for unknown names.
func lookup(name string) (algorithm, bool) {
	for _, a := range algorithms {
		if a.name == name {
			return a, true
		}
	}
	return algorithm{}, false
}

// names lists the rows keep accepts, in table (= sorted) order.
func names(keep func(algorithm) bool) []string {
	var out []string
	for _, a := range algorithms {
		if keep(a) {
			out = append(out, a.name)
		}
	}
	return out
}

// Backends returns the selectable execution backends.
func Backends() []string { return []string{"sim", "rt"} }

// Names returns all registered algorithm names, sorted.
func Names() []string { return names(func(algorithm) bool { return true }) }

// ExactNames returns the registered algorithms with an exact consistency
// claim (everything but the ε-approximate family), sorted. The regression
// and fault studies default to this scope: their fingerprints assert exact
// value assignment, which the approximate algorithms deliberately trade
// away — those are covered by the accuracy study instead.
func ExactNames() []string { return names(func(a algorithm) bool { return !a.approx() }) }

// ApproximateNames returns the registered ε-approximate algorithms, sorted.
func ApproximateNames() []string { return names(algorithm.approx) }

// DefaultEpsilon returns the error bound the named algorithm claims when
// Config.Epsilon is zero, and false for exact or unknown algorithms.
func DefaultEpsilon(name string) (float64, bool) {
	a, _ := lookup(name)
	return a.defaultEps, a.approx()
}

// WindowSensitive reports whether the named algorithm's construction
// consumes Config.Window — i.e. whether it is a request-merging scheme
// (combining tree, diffracting tree) whose saturation knee the window can
// move. Unknown names report false.
func WindowSensitive(name string) bool {
	a, _ := lookup(name)
	return a.windowed
}

// NewWith builds the named counter over (at least) n processors in the
// regime the config selects. This is the single construction path: the
// algorithm's machine is built once and handed to the configured backend.
// Pass Concurrent() for workload-engine use (merging windows open) or
// Sequential() for the paper's model.
func NewWith(name string, n int, cfg Config) (counter.Async, error) {
	m, err := NewMachine(name, n, cfg)
	if err != nil {
		return nil, err
	}
	switch cfg.Backend {
	case "", "sim":
		opts := cfg.SimOpts[:len(cfg.SimOpts):len(cfg.SimOpts)]
		if cfg.Service != nil {
			opts = append(opts, sim.WithServiceProfile(cfg.Service))
		}
		if cfg.Faults != nil {
			opts = append(opts, sim.WithFaults(*cfg.Faults))
		}
		return counter.OnSim(m, opts...), nil
	case "rt":
		if len(cfg.SimOpts) > 0 {
			return nil, fmt.Errorf("registry: %d simulator options given for the rt backend, which has none", len(cfg.SimOpts))
		}
		var opts []rt.Option
		if cfg.Service != nil {
			opts = append(opts, rt.WithServiceProfile(cfg.Service))
		}
		if cfg.Faults != nil {
			opts = append(opts, rt.WithFaults(*cfg.Faults))
		}
		return rt.New(m, opts...), nil
	}
	return nil, fmt.Errorf("registry: unknown backend %q (have %v)", cfg.Backend, Backends())
}

// NewMachine builds the named algorithm's backend-independent protocol
// descriptor — the state machine both backends wrap. Window-sensitive
// algorithms consume cfg.Window, approximate ones cfg.Epsilon.
func NewMachine(name string, n int, cfg Config) (counter.Machine, error) {
	a, ok := lookup(name)
	if !ok {
		return counter.Machine{}, fmt.Errorf("registry: unknown algorithm %q (have %v)", name, Names())
	}
	return a.machine(n, cfg), nil
}

// New builds the named counter on the simulator in the sequential regime
// of the paper's model (windows closed). The result is the concrete
// *counter.Sim, so it clones without an assertion (the adversary clones its
// subject).
func New(name string, n int, simOpts ...sim.Option) (*counter.Sim, error) {
	m, err := NewMachine(name, n, Config{})
	if err != nil {
		return nil, err
	}
	return counter.OnSim(m, simOpts...), nil
}
