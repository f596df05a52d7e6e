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
// Run executes this construction against any cloneable counter: at each
// step it clones the counter state, executes every remaining candidate's
// operation on a clone, measures the resulting communication-list length
// (recorded by a trace.Recorder), commits the longest candidate on the real
// counter, and records the proof trace: the executed lengths L_i, the last
// processor's candidate lists and their lengths l_i, the loads before each
// step, and the "first affected position" f_i that the potential argument
// manipulates.
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
	"sort"

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

// Run executes the adversarial sequence construction on a fresh, cloneable
// counter. It records the DAGs itself, holding the network's OnDeliver hook
// for the run (replacing any installed before; none is left after).
func Run(c counter.Cloneable, opts ...Option) (*Result, error) {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	n := c.N()
	full := cfg.sample <= 0 || cfg.sample >= n
	var committed trace.Recorder
	c.Net().OnDeliver(committed.Record)
	defer c.Net().OnDeliver(nil)
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
	// In full mode, every remaining candidate's hypothetical list is
	// recorded per step; q's per-step lists (the quantity the proof's
	// potential function tracks) are extracted once q is known, i.e. after
	// the last step. Memory is O(n² · L), fine for the sizes full mode is
	// meant for (n <= a few hundred).
	var listsPerStep []map[sim.ProcID][]int
	if full {
		listsPerStep = make([]map[sim.ProcID][]int, 0, n)
	}

	for step := 0; step < n; step++ {
		// Evaluate candidates: the adversary picks the processor whose
		// communication list is longest (ties: smallest id, determinism).
		// Latency seeds to explore per candidate (empty slice = keep the
		// inherited schedule stream).
		var seeds []uint64
		if cfg.schedules > 1 {
			seeds = make([]uint64, cfg.schedules)
			for i := range seeds {
				seeds[i] = r.Uint64()
			}
		}

		cands := candidates(remaining, cfg.sample, full, r)
		bestIdx, bestLen := -1, -1
		var bestSeed uint64
		bestReseed := false
		var stepLists map[sim.ProcID][]int
		if full {
			stepLists = make(map[sim.ProcID][]int, len(cands))
		}
		candidateLens := make(map[sim.ProcID]int, len(cands))
		for _, idx := range cands {
			p := remaining[idx]
			length, list, seed, reseeded, err := probe(c, p, full, seeds)
			if err != nil {
				return nil, fmt.Errorf("adversary: probing %v at step %d: %w", p, step, err)
			}
			if full {
				stepLists[p] = list
			}
			candidateLens[p] = length
			if length > bestLen {
				bestLen, bestIdx = length, idx
				bestSeed, bestReseed = seed, reseeded
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("adversary: no candidate at step %d", step)
		}
		if full {
			listsPerStep = append(listsPerStep, stepLists)
		}

		st := Step{Chosen: remaining[bestIdx], CandidateLens: candidateLens}
		if full {
			st.LoadsBefore = c.Net().Loads()
		}

		// Commit the chosen operation on the real counter, replaying the
		// chosen schedule when schedules were explored.
		if bestReseed {
			c.Net().Reseed(bestSeed)
		}
		before := c.Net().Ops()
		if _, err := c.Inc(st.Chosen); err != nil {
			return nil, fmt.Errorf("adversary: committing %v at step %d: %w", st.Chosen, step, err)
		}
		dag := committed.DAG(sim.OpID(before + 1))
		if dag == nil {
			return nil, fmt.Errorf("adversary: missing DAG for committed op at step %d", step)
		}
		st.ListLen = dag.ListLength()
		st.Participants = dag.Participants()

		res.Steps = append(res.Steps, st)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}

	res.Last = res.Steps[n-1].Chosen
	if full {
		for i := range res.Steps {
			list := listsPerStep[i][res.Last]
			res.Steps[i].LastList = list
			if len(list) > 0 {
				res.Steps[i].LastListLen = len(list) - 1
			}
			res.Steps[i].FirstAffected = firstAffected(list, res.Steps[i].Participants)
		}
	}
	res.Loads = c.Net().Loads()
	res.Summary = loadstat.SummarizeLoads(res.Loads)
	return res, nil
}

// firstAffected returns the 1-based position of the first entry of list
// that occurs in participants (sorted), or 0 if none does.
func firstAffected(list []int, participants []int) int {
	inOp := make(map[int]struct{}, len(participants))
	for _, p := range participants {
		inOp[p] = struct{}{}
	}
	for j, p := range list {
		if _, ok := inOp[p]; ok {
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
	sort.Ints(out)
	return out
}

// probe runs p's operation on clones — once per latency seed, or once on
// the inherited schedule when seeds is empty — and returns the longest
// communication list found, the seed that produced it, and whether a
// reseed is needed to replay it.
func probe(c counter.Cloneable, p sim.ProcID, full bool, seeds []uint64) (length int, list []int, seed uint64, reseeded bool, err error) {
	type scheduleTry struct {
		seed   uint64
		reseed bool
	}
	tries := []scheduleTry{{}}
	if len(seeds) > 0 {
		tries = tries[:0]
		for _, s := range seeds {
			tries = append(tries, scheduleTry{seed: s, reseed: true})
		}
	}
	length = -1
	for _, try := range tries {
		l, lst, perr := probeOnce(c, p, full, try.seed, try.reseed)
		if perr != nil {
			return 0, nil, 0, false, perr
		}
		if l > length {
			length, list, seed, reseeded = l, lst, try.seed, try.reseed
		}
	}
	return length, list, seed, reseeded, nil
}

// probeOnce clones the counter (optionally reseeding the clone's schedule)
// and executes p's operation, recording its DAG.
func probeOnce(c counter.Cloneable, p sim.ProcID, full bool, seed uint64, reseed bool) (int, []int, error) {
	cl, err := c.Clone()
	if err != nil {
		return 0, nil, err
	}
	net := cl.Net()
	if reseed {
		net.Reseed(seed)
	}
	var rec trace.Recorder
	net.OnDeliver(rec.Record)
	before := net.Ops()
	if _, err := cl.Inc(p); err != nil {
		return 0, nil, err
	}
	dag := rec.DAG(sim.OpID(before + 1))
	if dag == nil {
		return 0, nil, fmt.Errorf("probe of %v produced no DAG", p)
	}
	if !full {
		return dag.ListLength(), nil, nil
	}
	return dag.ListLength(), dag.CommunicationList(), nil
}
