// Package distcount is a library-grade reproduction of
//
//	Roger Wattenhofer, Peter Widmayer.
//	"An Inherent Bottleneck in Distributed Counting." PODC 1997.
//
// A distributed counter lets each processor of an asynchronous
// message-passing network read-and-increment a shared integer. The paper
// proves that over any sequence of n increments spread over n processors,
// SOME processor must send or receive Ω(k) messages, where k·k^k = n — no
// matter how clever the algorithm — and gives a matching counter built on a
// communication tree whose inner nodes retire their processor after Θ(k)
// messages, so every processor handles only O(k).
//
// The package exposes:
//
//   - the paper's communication-tree counter (NewTreeCounter) and the
//     baseline counters from the surrounding literature, built by name
//     through the options-based constructor (New): centralized, token
//     ring, combining tree, bitonic and periodic counting networks,
//     diffracting tree, quorum-replicated counters over five quorum
//     systems, and two ε-approximate counters (threshold broadcast and
//     coordinated sampling) that trade a bounded relative error for
//     sub-linear message cost — each carrying its consistency contract
//     as a Guarantee (exact level, or "approximate(ε)");
//   - the discrete-event simulator substrate they run on, with per-processor
//     message-load accounting and communication-DAG tracing;
//   - the lower-bound machinery: SolveK/SizeFor/KReal for the k·k^k = n
//     arithmetic and RunAdversary for the proof's constructive
//     longest-communication-list workload;
//   - the experiment harness (Experiments, RunExperiment) that regenerates
//     every figure and theorem-level claim of the paper;
//   - the workload engine (NewScenario, RunWorkload): seeded traffic
//     scenarios (uniform, Zipf, hotspot, bursty, gap and rate ramps,
//     multi-phase mixes) driven through a concurrent load driver in
//     closed-loop (fixed in-flight window) or open-loop mode (admit at
//     arrival time, bounded admission queue), measuring throughput,
//     latency percentiles split into queueing delay and service latency,
//     the bottleneck-load trajectory, and — open loop, combined with the
//     simulator's per-message service-time model — each algorithm's
//     saturation knee; cmd/loadgen is its command-line face, including
//     multi-run grid sweeps (-sweep).
//
// # Quick start
//
//	c := distcount.NewTreeCounter(3)        // n = 3·3³ = 81 processors
//	order := distcount.RandomOrder(c.N(), 1)
//	res, err := distcount.RunSequence(c, order)
//	// res.Values is a permutation of 0..80; the busiest processor
//	// handled only O(k)=O(3) messages:
//	sum := distcount.Loads(c)
//	fmt.Println(sum.MaxLoad, "messages at processor", sum.Bottleneck)
//
// See the package examples for checked programs, docs/ARCHITECTURE.md for
// the package map and the operation lifecycle, and docs/EXPERIMENTS.md for
// a runnable cookbook of paper reproductions and saturation sweeps.
package distcount
