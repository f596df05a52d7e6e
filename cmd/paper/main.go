// Command paper is the paper-reproduction front end: everything that
// regenerates or inspects an artifact of "An Inherent Bottleneck in
// Distributed Counting" in the paper's own sequential model. (The workload
// engine, which leaves that model, is cmd/loadgen.)
//
//	paper exp      the figures and theorem-level measurements, E1..E14
//	paper profile  one algorithm's per-processor load profile over the
//	               canonical workload (each of n processors increments once)
//	paper tree     the communication tree of Figure 4 for arity k
//	paper dag      the communication DAG and list of one inc (Figures 1, 2)
//	paper bound    the Lower Bound Theorem's k(n), and the proof's adversary
//	               run against any implemented algorithm
//
// Usage:
//
//	paper exp -list
//	paper exp -exp E4
//	paper exp -all -quick
//	paper profile -algo ctree -n 81 -order random -seed 7 -top 5
//	paper profile -list
//	paper tree -k 3 -run
//	paper dag -algo quorum-grid -n 36 -proc 17 -format dot
//	paper bound                            # bound table for the admissible sizes
//	paper bound -n 1000000                 # k(n) for a specific n
//	paper bound -adversary -algo ctree -n 81 -trace
//
// Every subcommand is deterministic; an error, a flag that contradicts
// another or a selection the subcommand would have to ignore exits 1 with
// one line, `paper <sub>: message`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"distcount/internal/adversary"
	"distcount/internal/bound"
	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/experiments"
	"distcount/internal/loadstat"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/trace"
	"distcount/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// subcommands is the table: a name and a function that declares the
// subcommand's flags on fs and returns what to do once they are parsed.
var subcommands = []struct {
	name  string
	setup func(fs *flag.FlagSet) func(out io.Writer) error
}{
	{"exp", exp},
	{"profile", profile},
	{"tree", tree},
	{"dag", dag},
	{"bound", lowerBound},
}

// run is the one entry point and the one error path: whatever goes wrong
// in subcommand sub comes back as "paper sub: message".
func run(args []string, out io.Writer) error {
	var names []string
	for _, sub := range subcommands {
		names = append(names, sub.name)
	}
	if len(args) == 0 {
		return fmt.Errorf("paper: need a subcommand: %s", strings.Join(names, ", "))
	}
	for _, sub := range subcommands {
		if sub.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("paper "+sub.name, flag.ContinueOnError)
		do := sub.setup(fs)
		err := fs.Parse(args[1:])
		if err == nil && fs.NArg() > 0 {
			err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
		}
		if err == nil {
			err = do(out)
		}
		if err != nil {
			return fmt.Errorf("paper %s: %w", sub.name, err)
		}
		return nil
	}
	return fmt.Errorf("paper: unknown subcommand %q (have %s)", args[0], strings.Join(names, ", "))
}

// explicit lists the flags given on the command line. A measurement tool
// must not silently ignore a selection, so the subcommands reject the ones
// that could not take effect.
func explicit(fs *flag.FlagSet) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, "-"+f.Name) })
	return set
}

// exp regenerates the paper's figures and theorem-level measurements
// (docs/ARCHITECTURE.md maps the experiments' machinery to modules).
func exp(fs *flag.FlagSet) func(io.Writer) error {
	var (
		id    = fs.String("exp", "", "experiment id to run (E1..E14)")
		all   = fs.Bool("all", false, "run every experiment")
		quick = fs.Bool("quick", false, "reduced problem sizes")
		list  = fs.Bool("list", false, "list experiments and exit")
	)
	return func(out io.Writer) error {
		cfg := experiments.Config{Quick: *quick}
		switch {
		case (*id != "" && *all) || (*list && fs.NFlag() > 1):
			return fmt.Errorf("%s: pass exactly one of -exp, -all, -list", strings.Join(explicit(fs), " "))
		case *list:
			for _, e := range experiments.All() {
				fmt.Fprintf(out, "%-4s %-70s [%s]\n", e.ID, e.Title, e.Artifact)
			}
			return nil
		case *all:
			report, err := experiments.RunAll(cfg)
			fmt.Fprint(out, report)
			return err
		case *id != "":
			e, ok := experiments.ByID(*id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", *id)
			}
			report, err := e.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "=== %s: %s (%s) ===\n%s", e.ID, e.Title, e.Artifact, report)
			return nil
		}
		return fmt.Errorf("nothing to do: pass -exp, -all, or -list")
	}
}

// profile runs an algorithm over the canonical workload and prints the
// per-processor message-load profile: bottleneck, distribution, histogram,
// and the heaviest processors.
func profile(fs *flag.FlagSet) func(io.Writer) error {
	var (
		algo    = fs.String("algo", "ctree", "algorithm: "+strings.Join(registry.Names(), ", "))
		n       = fs.Int("n", 81, "number of processors (rounded up for structured algorithms)")
		order   = fs.String("order", "sequential", "operation order: sequential, reverse, random")
		seed    = fs.Uint64("seed", 1, "seed for -order random")
		top     = fs.Int("top", 5, "show the top-J loaded processors")
		buckets = fs.Int("buckets", 8, "histogram buckets")
		list    = fs.Bool("list", false, "list algorithms and exit")
		check   = fs.Bool("check", true, "verify counter semantics and the Hot Spot Lemma")
	)
	return func(out io.Writer) error {
		orders := map[string]func(n int) []sim.ProcID{
			"sequential": counter.SequentialOrder,
			"reverse":    counter.ReverseOrder,
			"random":     func(n int) []sim.ProcID { return counter.RandomOrder(n, *seed) },
		}
		switch {
		case *list && fs.NFlag() > 1:
			return fmt.Errorf("%s: -list takes no other flag", strings.Join(explicit(fs), " "))
		case *list:
			fmt.Fprintln(out, strings.Join(registry.Names(), "\n"))
			return nil
		case *n < 1 || *top < 0 || *buckets < 1:
			return fmt.Errorf("need -n >= 1, -top >= 0 and -buckets >= 1 (have %d, %d, %d)", *n, *top, *buckets)
		case orders[*order] == nil:
			return fmt.Errorf("unknown order %q", *order)
		case *order != "random" && slices.Contains(explicit(fs), "-seed"):
			return fmt.Errorf("-seed only applies to -order random")
		}
		c, err := registry.New(*algo, *n)
		if err != nil {
			return err
		}
		ops := orders[*order](c.N())
		res, err := counter.RunSequence(c, ops)
		if err != nil {
			return err
		}
		if *check {
			if err := verify.Sequential(res); err != nil {
				return fmt.Errorf("correctness: %w", err)
			}
			if err := verify.HotSpot(res); err != nil {
				return fmt.Errorf("hot spot: %w", err)
			}
		}

		loads := c.Net().Loads()
		fmt.Fprintf(out, "%s over n=%d processors, %d ops (%s order)\n", c.Name(), c.N(), len(ops), *order)
		fmt.Fprint(out, loadstat.FormatSummary(c.Name(), loadstat.SummarizeLoads(loads)))
		fmt.Fprintf(out, "  lower bound: every algorithm has a processor with load >= k(n) = %d\n", bound.SolveK(c.N()))
		if *check {
			fmt.Fprintln(out, "  checks: counting semantics ok, hot-spot lemma ok")
		}
		fmt.Fprintln(out, "load histogram:")
		fmt.Fprint(out, loadstat.FormatHistogram(loadstat.Histogram(loads, *buckets)))
		fmt.Fprintf(out, "top %d processors by load:\n", *top)
		for _, pl := range loadstat.Top(loads, *top) {
			fmt.Fprintf(out, "  p%-6d %d\n", pl.Proc, pl.Load)
		}
		return nil
	}
}

// tree prints the structure of the paper's communication tree — Figure 4 —
// for a given arity k: levels, node counts, the initial
// processor-identifier scheme P(i,j) = (i-1)·k^k + j·k^(k-i) + 1, and the
// replacement pools. With -run it executes the canonical workload and
// annotates the structure with observed retirements and the final load
// profile.
func tree(fs *flag.FlagSet) func(io.Writer) error {
	var (
		k       = fs.Int("k", 2, "tree arity (2..6 practical)")
		doRun   = fs.Bool("run", false, "run the canonical workload and annotate")
		maxShow = fs.Int("show", 16, "max nodes to print per level")
	)
	return func(out io.Writer) error {
		if *k < 2 || *k > 8 || *maxShow < 0 {
			return fmt.Errorf("need -k in 2..8 and -show >= 0 (have %d, %d)", *k, *maxShow)
		}
		c := core.New(*k)
		n := c.N()
		fmt.Fprintf(out, "communication tree, k=%d: n = k·k^k = %d processors; root pool 1..%d; retirement threshold %d\n\n",
			*k, n, n / *k, c.RetireAge())
		for level, l := range experiments.Levels(c.Nodes()) {
			fmt.Fprintf(out, "level %d: %d node(s), pool size %d\n", level, len(l.Nodes), l.Nodes[0].PoolSize)
			for i, nd := range l.Nodes {
				if i >= *maxShow {
					fmt.Fprintf(out, "  ... %d more\n", len(l.Nodes)-i)
					break
				}
				fmt.Fprintf(out, "  node (%d,%d): processor %d, pool [%d..%d]\n",
					nd.Level, nd.Pos, nd.Cur, nd.PoolStart, int(nd.PoolStart)+nd.PoolSize-1)
			}
		}
		fmt.Fprintf(out, "leaves: processors 1..%d on level %d\n", n, *k+1)
		if !*doRun {
			return nil
		}

		t, err := experiments.RunTree(c, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nafter the canonical workload (%d ops):\n", n)
		fmt.Fprintf(out, "  retirements: %d total, forwarded (handshake) messages: %d\n",
			c.Stats().Retirements, c.Stats().Forwarded)
		fmt.Fprintf(out, "  bottleneck: p%d with load %d (= %.1f·k); mean load %.2f; gini %.3f\n",
			t.Load.Bottleneck, t.Load.MaxLoad, float64(t.Load.MaxLoad)/float64(*k), t.Load.Mean, t.Load.Gini)
		if v, count := c.Violations(); count > 0 {
			fmt.Fprintf(out, "  LEMMA VIOLATIONS (%d): %v\n", count, v)
		} else {
			fmt.Fprintln(out, "  all Section 4 lemmas verified: no violations")
		}
		for level, l := range experiments.Levels(c.Nodes()) {
			fmt.Fprintf(out, "  level %d: %d retirements (max per node %d)\n", level, l.Retired, l.MaxRetired)
		}
		return nil
	}
}

// dag captures the communication DAG of a single inc operation — the
// paper's Figure 1 — and prints it as an ASCII tree, Graphviz dot, and the
// topologically sorted communication list (Figure 2).
func dag(fs *flag.FlagSet) func(io.Writer) error {
	var (
		algo   = fs.String("algo", "ctree", "algorithm: "+strings.Join(registry.Names(), ", "))
		n      = fs.Int("n", 8, "number of processors")
		proc   = fs.Int("proc", 1, "initiating processor of the traced operation")
		warmup = fs.Int("warmup", 0, "operations to execute before tracing (warms up protocol state)")
		format = fs.String("format", "all", "output: ascii, dot, list, all")
	)
	return func(out io.Writer) error {
		if !slices.Contains([]string{"ascii", "dot", "list", "all"}, *format) {
			return fmt.Errorf("unknown format %q (have ascii, dot, list, all)", *format)
		}
		if *n < 1 || *warmup < 0 {
			return fmt.Errorf("need -n >= 1 and -warmup >= 0 (have %d, %d)", *n, *warmup)
		}
		c, err := registry.New(*algo, *n)
		if err != nil {
			return err
		}
		if *proc < 1 || *proc > c.N() {
			return fmt.Errorf("processor %d out of range 1..%d", *proc, c.N())
		}
		for i := 0; i < *warmup; i++ {
			if _, err := c.Inc(sim.ProcID(i%c.N() + 1)); err != nil {
				return fmt.Errorf("warmup op %d: %w", i, err)
			}
		}

		var rec trace.Recorder
		c.OnDeliver(rec.Record)
		before := c.Ops()
		val, err := c.Inc(sim.ProcID(*proc))
		if err != nil {
			return err
		}
		d := rec.DAG(sim.OpID(before + 1))
		if d == nil {
			return fmt.Errorf("no DAG captured")
		}
		if err := d.Validate(); err != nil {
			return err
		}

		fmt.Fprintf(out, "inc by p%d on %s (n=%d) returned %d; %d messages, %d participants\n\n",
			*proc, c.Name(), c.N(), val, d.Messages(), len(d.Participants()))
		if *format == "ascii" || *format == "all" {
			fmt.Fprintln(out, "communication DAG (Figure 1):")
			fmt.Fprintln(out, d.ASCII())
		}
		if *format == "dot" || *format == "all" {
			fmt.Fprintln(out, "Graphviz:")
			fmt.Fprintln(out, d.DOT())
		}
		if *format == "list" || *format == "all" {
			fmt.Fprintln(out, "communication list (Figure 2):")
			fmt.Fprintln(out, d.ListASCII())
		}
		return nil
	}
}

// lowerBound prints the paper's Lower Bound Theorem arithmetic — the bound
// parameter k(n) with k·k^k = n — and with -adversary runs the constructive
// adversary from the proof against any implemented algorithm, reporting
// the measured bottleneck next to the bound.
func lowerBound(fs *flag.FlagSet) func(io.Writer) error {
	var (
		n         = fs.Int("n", 0, "print k(n) for this n (0: table of admissible sizes; with -adversary: 81)")
		adv       = fs.Bool("adversary", false, "run the proof's adversarial workload")
		algo      = fs.String("algo", "central", "algorithm for -adversary: "+strings.Join(registry.Names(), ", "))
		sample    = fs.Int("sample", 0, "sampled adversary with this many probes per step (0: full)")
		schedules = fs.Int("schedules", 0, "explore this many latency schedules per probe (needs a random latency; 0/1: inherited schedule)")
		trace     = fs.Bool("trace", false, "print the per-step proof trace (full mode only)")
	)
	return func(out io.Writer) error {
		switch {
		case *n < 0 || *sample < 0 || *schedules < 0:
			return fmt.Errorf("need -n, -sample and -schedules >= 0 (have %d, %d, %d)", *n, *sample, *schedules)
		case *trace && *sample > 0:
			return fmt.Errorf("-trace needs the full adversary, -sample %d keeps no proof trace", *sample)
		case *adv:
			return runAdversary(out, *algo, *n, *sample, *schedules, *trace)
		}
		for _, f := range explicit(fs) {
			if f != "-n" {
				return fmt.Errorf("%s only applies with -adversary", f)
			}
		}
		if *n > 0 {
			fmt.Fprintf(out, "k(%d) = %d  (k·k^k = n at n = %d; real solution %.4f)\n",
				*n, bound.SolveK(*n), bound.SizeFor(bound.SolveK(*n)), bound.KReal(float64(*n)))
			return nil
		}
		tb := loadstat.NewTable("k", "n = k·k^k", "bound: some processor's load >= k")
		for k := 1; k <= 8; k++ {
			tb.AddRow(k, bound.SizeFor(k), k)
		}
		fmt.Fprint(out, tb.String())
		return nil
	}
}

func runAdversary(out io.Writer, algo string, n, sample, schedules int, trace bool) error {
	if n == 0 {
		n = 81
	}
	var simOpts []sim.Option
	var opts []adversary.Option
	if sample > 0 {
		opts = append(opts, adversary.SampleSize(sample))
	}
	if schedules > 1 {
		// Schedule exploration needs a randomized latency model.
		simOpts = append(simOpts, sim.WithLatency(sim.UniformLatency{Min: 1, Max: 9}))
		opts = append(opts, adversary.ScheduleSeeds(schedules))
	}
	c, err := registry.New(algo, n, simOpts...)
	if err != nil {
		return err
	}
	res, err := adversary.Run(c, opts...)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "adversary vs %s, n=%d: bottleneck p%d with m_b = %d (bound k = %d, avg msgs/op L = %.2f)\n",
		c.Name(), c.N(), res.Summary.Bottleneck, res.Summary.MaxLoad, res.BoundK, res.AvgExecutedLen())
	if !res.Full {
		return nil
	}
	if err := adversary.VerifyProofStructure(res); err != nil {
		return fmt.Errorf("proof structure: %w", err)
	}
	fmt.Fprintln(out, "proof structure verified: greedy rule, q-list prefixes, hot-spot intersections, bound met")
	if ws, lambda, err := res.WeightSeries(); err == nil {
		fmt.Fprintf(out, "potential function: λ = %.4f, w_1 = %.3f, w_n = %.3f\n", lambda, ws[0], ws[len(ws)-1])
	}
	if trace {
		for i, st := range res.Steps {
			fmt.Fprintf(out, "step %3d: chose p%-5d L=%3d l=%3d f=%3d q-list=%v\n",
				i+1, st.Chosen, st.ListLen, st.LastListLen, st.FirstAffected, st.LastList)
		}
	}
	return nil
}
