// Package adversary implements the constructive heart of the paper's Lower
// Bound Theorem proof (Section 3).
//
// The proof defines a particular sequence of n inc operations, one per
// processor: "For each operation in the sequence we choose a processor
// (among those that have not been chosen yet) and a process such that the
// processor's communication list is longest." The processor chosen last, q,
// then has its hypothetical communication list inspected at every step; a
// potential-function argument over those lists shows that some processor
// must carry load Ω(k) with k·k^k = n.
//
// Run executes this construction against any simulated counter (a
// counter.Sim, the kind that clones) in two passes. The greedy pass runs
// every remaining candidate's operation on a clone, keeps only the list
// lengths (recorded by a trace.Recorder) and commits the longest. Once q is
// known, a replay of the committed sequence probes q alone at each step.
// Together they record the proof trace: the executed lengths L_i, q's
// candidate lists and their lengths l_i, the loads before each step, and
// the "first affected position" f_i that the potential argument manipulates.
//
// The recorded trace supports the structural checks of the proof:
//
//   - l_i <= L_i (the adversary maximizes);
//   - every executed operation touches at least one processor of the last
//     processor's candidate list (the Hot Spot Lemma step: if it did not,
//     the list would remain a valid process prefix and its initiator would
//     miss the increment);
//   - the measured bottleneck load is at least the closed-form bound k(n)
//     (the theorem's conclusion).
//
// A sampled variant (SampleSize option) evaluates only a random subset of
// candidates per step so that larger systems remain tractable; it yields a
// valid adversarial workload and bottleneck measurement but no complete
// proof trace.
package adversary

import (
	"fmt"
	"slices"

	"distcount/internal/bound"
	"distcount/internal/counter"
	"distcount/internal/loadstat"
	"distcount/internal/rng"
	"distcount/internal/sim"
	"distcount/internal/trace"
)

// Step records one committed operation of the adversarial sequence.
type Step struct {
	// Chosen is the processor whose operation was executed.
	Chosen sim.ProcID
	// ListLen is L_i: the communication-list length (= message count) of
	// the executed operation.
	ListLen int
	// Participants is I of the executed operation.
	Participants []int
	// LastList is the communication list q (the last-chosen processor)
	// would have produced at this step, and LastListLen its length l_i.
	// Populated only in full mode.
	LastList    []int
	LastListLen int
	// FirstAffected is f_i: the 1-based position of the first node in
	// LastList whose processor participates in the executed operation
	// (0 = no intersection, which would contradict the Hot Spot Lemma).
	// Populated only in full mode.
	FirstAffected int
	// CandidateLens maps every evaluated candidate to the length of the
	// communication list its operation would have produced at this step —
	// the quantities Figure 3 of the paper depicts.
	CandidateLens map[sim.ProcID]int
	// LoadsBefore are the per-processor loads before the step (index =
	// processor id). Populated only in full mode.
	LoadsBefore []int64
}

// Result is the outcome of an adversarial run.
type Result struct {
	// Steps has one entry per executed operation, in order.
	Steps []Step
	// Last is q, the processor chosen for the very last operation.
	Last sim.ProcID
	// Loads are the final per-processor loads; Summary summarizes them.
	Loads   []int64
	Summary loadstat.Summary
	// BoundK is the closed-form lower bound k with k·k^k <= n.
	BoundK int
	// Full reports whether the complete proof trace was recorded.
	Full bool
}

// AvgExecutedLen returns the proof's L: the average executed list length.
func (r *Result) AvgExecutedLen() float64 {
	if len(r.Steps) == 0 {
		return 0
	}
	total := 0
	for _, s := range r.Steps {
		total += s.ListLen
	}
	return float64(total) / float64(len(r.Steps))
}

// Option configures Run.
type Option func(*config)

type config struct {
	sample    int
	seed      uint64
	schedules int
}

// SampleSize switches to the sampled adversary: at each step only s random
// remaining candidates are evaluated (plus, always, the best-known
// candidate semantics of the greedy rule). s <= 0 means full evaluation.
func SampleSize(s int) Option {
	return func(c *config) { c.sample = s }
}

// WithSeed seeds the candidate sampler (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// ScheduleSeeds makes the adversary explore message schedules as well as
// initiators: each candidate's operation is probed under s different
// latency seeds and the longest resulting communication list counts; the
// chosen (candidate, seed) pair is replayed exactly on the real counter.
// This mirrors the proof's use of nondeterminism — "for each operation in
// the sequence there may be more than one possible process. We will argue
// on possible prefixes of processes" — and only has an effect when the
// counter's network uses a randomized latency model. s <= 1 keeps the
// single inherited schedule.
func ScheduleSeeds(s int) Option {
	return func(c *config) { c.schedules = s }
}

// Run executes the adversarial sequence construction on a fresh simulated
// counter in two passes. The greedy pass commits, step by step, the
// candidate whose probe is longest, keeping only the probed lengths and the
// schedules explored. In full mode a replay pass then reruns the committed
// sequence on a copy of the counter taken before the first, probing q alone
// before each step for its list, f_i and the loads: list memory is O(n·L).
// Run records the DAGs itself, holding the network's OnDeliver hook for the
// run (replacing any installed before; none is left after).
func Run(c *counter.Sim, opts ...Option) (*Result, error) {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	n := c.N()
	full := cfg.sample <= 0 || cfg.sample >= n
	var start *counter.Sim
	if full {
		var err error
		if start, err = c.Clone(); err != nil {
			return nil, fmt.Errorf("adversary: %w", err)
		}
	}
	defer c.OnDeliver(nil)
	r := rng.New(cfg.seed)

	remaining := make([]sim.ProcID, n)
	for i := range remaining {
		remaining[i] = sim.ProcID(i + 1)
	}
	res := &Result{
		Steps:  make([]Step, 0, n),
		BoundK: bound.SolveK(n),
		Full:   full,
	}
	// Per step, the latency seeds explored (nil: the inherited schedule
	// only) and the index of the one the commit ran under.
	seeds := make([][]uint64, 0, n)
	picks := make([]int, 0, n)

	for step := 0; step < n; step++ {
		var stepSeeds []uint64
		if cfg.schedules > 1 {
			stepSeeds = make([]uint64, cfg.schedules)
			for i := range stepSeeds {
				stepSeeds[i] = r.Uint64()
			}
		}

		// The adversary picks the processor whose communication list is
		// longest (ties: smallest id, determinism).
		cands := candidates(remaining, cfg.sample, full, r)
		bestIdx, bestLen, bestPick := -1, -1, 0
		candidateLens := make(map[sim.ProcID]int, len(cands))
		for _, idx := range cands {
			p := remaining[idx]
			dag, pick, err := probe(c, p, stepSeeds)
			if err != nil {
				return nil, fmt.Errorf("adversary: probing %v at step %d: %w", p, step, err)
			}
			length := dag.ListLength()
			candidateLens[p] = length
			if length > bestLen {
				bestLen, bestIdx, bestPick = length, idx, pick
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("adversary: no candidate at step %d", step)
		}

		st := Step{Chosen: remaining[bestIdx], CandidateLens: candidateLens}
		dag, err := exec(c, st.Chosen, stepSeeds, bestPick)
		if err != nil {
			return nil, fmt.Errorf("adversary: committing %v at step %d: %w", st.Chosen, step, err)
		}
		st.ListLen = dag.ListLength()
		st.Participants = dag.Participants()

		res.Steps = append(res.Steps, st)
		seeds = append(seeds, stepSeeds)
		picks = append(picks, bestPick)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}

	res.Last = res.Steps[n-1].Chosen
	if full {
		if err := replay(start, res, seeds, picks); err != nil {
			return nil, err
		}
	}
	res.Loads = c.Net().Loads()
	res.Summary = loadstat.SummarizeLoads(res.Loads)
	return res, nil
}

// replay reruns res's committed sequence on c, a copy of the counter taken
// before it, under the same schedules. Before each commit it records the
// loads and probes q alone, filling q's list, its length and f_i.
func replay(c *counter.Sim, res *Result, seeds [][]uint64, picks []int) error {
	for i := range res.Steps {
		st := &res.Steps[i]
		st.LoadsBefore = c.Net().Loads()
		dag, _, err := probe(c, res.Last, seeds[i])
		if err != nil {
			return fmt.Errorf("adversary: replaying q = %v at step %d: %w", res.Last, i, err)
		}
		st.LastList = dag.CommunicationList()
		st.LastListLen = dag.ListLength()
		st.FirstAffected = firstAffected(st.LastList, st.Participants)
		if dag, err = exec(c, st.Chosen, seeds[i], picks[i]); err != nil {
			return fmt.Errorf("adversary: replaying %v at step %d: %w", st.Chosen, i, err)
		}
		if dag.ListLength() != st.ListLen {
			return fmt.Errorf("adversary: replay of step %d ran %d messages, the commit %d", i, dag.ListLength(), st.ListLen)
		}
	}
	return nil
}

// firstAffected returns the 1-based position of the first entry of list
// that occurs in participants (sorted), or 0 if none does.
func firstAffected(list []int, participants []int) int {
	for j, p := range list {
		if _, ok := slices.BinarySearch(participants, p); ok {
			return j + 1
		}
	}
	return 0
}

// candidates returns the indices into remaining to evaluate this step.
func candidates(remaining []sim.ProcID, sample int, full bool, r *rng.Source) []int {
	if full || sample >= len(remaining) {
		out := make([]int, len(remaining))
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Random subset without replacement.
	perm := r.Perm(len(remaining))
	out := perm[:sample]
	slices.Sort(out)
	return out
}

// probe runs p's operation on clones of c, once per latency seed or once on
// the inherited schedule when seeds is empty, and returns the first longest
// operation's DAG and the index of its seed.
func probe(c *counter.Sim, p sim.ProcID, seeds []uint64) (*trace.DAG, int, error) {
	var best *trace.DAG
	pick := 0
	for i := 0; i < max(1, len(seeds)); i++ {
		cl, err := c.Clone()
		if err != nil {
			return nil, 0, err
		}
		dag, err := exec(cl, p, seeds, i)
		if err != nil {
			return nil, 0, err
		}
		if best == nil || dag.ListLength() > best.ListLength() {
			best, pick = dag, i
		}
	}
	return best, pick, nil
}

// exec runs p's operation on c under a fresh recorder, first reseeding c's
// schedule with seeds[i] when seeds is not empty, and returns its DAG.
func exec(c *counter.Sim, p sim.ProcID, seeds []uint64, i int) (*trace.DAG, error) {
	if len(seeds) > 0 {
		c.Net().Reseed(seeds[i])
	}
	var rec trace.Recorder
	c.OnDeliver(rec.Record)
	before := c.Ops()
	if _, err := c.Inc(p); err != nil {
		return nil, err
	}
	dag := rec.DAG(sim.OpID(before + 1))
	if dag == nil {
		return nil, fmt.Errorf("operation of %v produced no DAG", p)
	}
	return dag, nil
}
