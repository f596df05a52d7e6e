package registry_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/engine"
	"distcount/internal/registry"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/trace"
	"distcount/internal/verify"
	"distcount/internal/workload"
)

// TestCrossBackendEquivalence runs every registered algorithm on both
// execution backends — the discrete-event simulator and the rt runtime on
// real cores — under the same per-initiator operation sequence
// (same scenario, same seed), and checks that both complete every operation
// and that verify.Evaluate passes at the algorithm's claimed consistency
// level on both. The sim run checks the property on a simulated
// interleaving; the rt run re-checks it on a real one, which is the point:
// a protocol whose correctness secretly leaned on the simulator's single
// thread fails here (run under -race in CI's rt smoke job).
func TestCrossBackendEquivalence(t *testing.T) {
	const ops = 160
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := registry.Concurrent()

			simC, err := registry.NewWith(name, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rtCfg := cfg
			rtCfg.Backend = "rt"
			rtC, err := registry.NewWith(name, 8, rtCfg)
			if err != nil {
				t.Fatal(err)
			}
			r, ok := rtC.(*rt.Runtime)
			if !ok {
				t.Fatalf("rt backend built %T, want *rt.Runtime", rtC)
			}
			if simC.N() != r.N() {
				t.Fatalf("backend sizes differ: sim n=%d, rt n=%d", simC.N(), r.N())
			}

			wl := workload.Config{N: simC.N(), Ops: ops, Seed: 7, MeanGap: 4}
			ecfg := engine.Config{InFlight: simC.N(), Verify: true}

			simGen, err := workload.New("uniform", wl)
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := engine.Run(simC, simGen, ecfg)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}

			rtGen, err := workload.New("uniform", wl)
			if err != nil {
				t.Fatal(err)
			}
			rtRes, err := engine.Run(r, rtGen, ecfg)
			if err != nil {
				t.Fatalf("rt run: %v", err)
			}

			if simRes.Ops != ops || rtRes.Ops != ops {
				t.Fatalf("completed ops differ: sim %d, rt %d, want %d", simRes.Ops, rtRes.Ops, ops)
			}
			for backend, res := range map[string]*engine.Result{"sim": simRes, "rt": rtRes} {
				v := res.Verification
				if v == nil {
					t.Fatalf("%s: no verification report", backend)
				}
				if v.Ops != ops {
					t.Errorf("%s: verified %d ops, want %d", backend, v.Ops, ops)
				}
				if v.Missing != 0 {
					t.Errorf("%s: %d completed ops had no value", backend, v.Missing)
				}
				if v.Violations != 0 {
					t.Errorf("%s: %d violations of %s (first: %s)", backend, v.Violations, v.Property, v.First)
				}
			}
			// The runtime keeps no total of its own: it is the sum of the
			// per-processor sent counts, and the report's figure is that sum.
			sent, _ := r.Loads(nil, nil)
			var sum int64
			for _, s := range sent {
				sum += s
			}
			if r.MessagesTotal() != sum || rtRes.Messages != sum {
				t.Errorf("rt messages: MessagesTotal %d, report %d, per-processor sent counts sum to %d",
					r.MessagesTotal(), rtRes.Messages, sum)
			}
			// Both backends claim the same property for the same machine.
			if simRes.Verification.Property != rtRes.Verification.Property {
				t.Errorf("claimed property differs: sim %q, rt %q",
					simRes.Verification.Property, rtRes.Verification.Property)
			}
		})
	}
}

// TestCrossBackendKeyedEquivalence runs the same seeded keyed sequence
// through the sharded service layer on both backends — every registered
// algorithm as the uniform home-shard algorithm — and checks that the
// per-key outcomes are identical: same final routing (the hash is
// platform- and backend-independent), same per-key completed-operation
// count (the key's final counter value), and a clean keyed verification
// on both. The sim run fixes the expected values on a deterministic
// interleaving; the rt run must reproduce them under real concurrency
// (run under -race in CI's rt smoke job).
//
// It also pins the one completion shape both backends report through: the
// same sequence driven one operation at a time straight through the
// service's OnComplete and Await yields the same multiset of (shard, key,
// epoch, initiator, messages) records and the same per-key values on both.
func TestCrossBackendKeyedEquivalence(t *testing.T) {
	const (
		ops    = 160
		keys   = 8
		shards = 2
		n      = 8
	)
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			build := func(backend string) (*countersvc.Service, workload.Generator) {
				rcfg := registry.Concurrent()
				rcfg.Backend = backend
				svc, err := countersvc.New(countersvc.Config{
					Keys: keys, N: n, Shards: shards, Algo: name, Registry: rcfg,
				})
				if err != nil {
					t.Fatal(err)
				}
				// A zipf key draw makes the per-key counts unequal, so the
				// equivalence check is not satisfied by symmetry.
				gen, err := workload.New("uniform", workload.Config{
					N: svc.N(), Ops: ops, Seed: 7, MeanGap: 4,
					Keys: keys, KeyDist: "zipf", KeyZipfS: 1.1,
				})
				if err != nil {
					t.Fatal(err)
				}
				return svc, gen
			}
			runOnce := func(backend string) *engine.Result {
				svc, gen := build(backend)
				res, err := engine.RunKeyed(svc, gen, engine.Config{InFlight: svc.N(), Verify: true})
				if err != nil {
					t.Fatalf("%q run: %v", backend, err)
				}
				return res
			}
			simRes := runOnce("")
			rtRes := runOnce("rt")

			if simRes.Ops != ops || rtRes.Ops != ops {
				t.Fatalf("completed ops differ: sim %d, rt %d, want %d", simRes.Ops, rtRes.Ops, ops)
			}
			if len(simRes.PerKey) != keys || len(rtRes.PerKey) != keys {
				t.Fatalf("per-key stats: sim %d keys, rt %d keys, want %d",
					len(simRes.PerKey), len(rtRes.PerKey), keys)
			}
			total := 0
			for k := 0; k < keys; k++ {
				s, r := simRes.PerKey[k], rtRes.PerKey[k]
				if s.Shard != r.Shard {
					t.Errorf("key %d routed to shard %d on sim, %d on rt", k, s.Shard, r.Shard)
				}
				if s.Ops != r.Ops {
					t.Errorf("key %d final value differs: sim %d, rt %d", k, s.Ops, r.Ops)
				}
				total += s.Ops
			}
			if total != ops {
				t.Errorf("per-key values sum to %d, want %d", total, ops)
			}
			for backend, res := range map[string]*engine.Result{"sim": simRes, "rt": rtRes} {
				v := res.Verification
				if v == nil {
					t.Fatalf("%s: no verification report", backend)
				}
				if v.Ops != ops || v.Missing != 0 || v.Violations != 0 {
					t.Errorf("%s: keyed verification ops=%d missing=%d violations=%d (first: %s)",
						backend, v.Ops, v.Missing, v.Violations, v.First)
				}
			}
			if simRes.Verification.Property != rtRes.Verification.Property {
				t.Errorf("claimed property differs: sim %q, rt %q",
					simRes.Verification.Property, rtRes.Verification.Property)
			}

			// stream drives the sequence one operation at a time, so each
			// operation's message count is the protocol's, not the
			// interleaving's, and returns the completion records as a
			// multiset plus the value each key was last handed.
			stream := func(backend string) (map[string]int, []int) {
				svc, gen := build(backend)
				defer svc.Close()
				records := map[string]int{}
				last := make([]int, keys)
				done := false
				svc.OnComplete(func(c countersvc.Completion) {
					records[fmt.Sprintf("shard %d key %d epoch %d by %d: %d msgs", c.Shard, c.Key, c.Epoch, c.Initiator, c.Messages)]++
					v, ok := svc.Counter(c.Shard).OpValue(c.ID)
					if !ok {
						t.Errorf("%s: op %d on shard %d has no value", backend, c.ID, c.Shard)
					}
					last[c.Key] = v
					done = true
				}, time.Second)
				for req, more := gen.Next(); more; req, more = gen.Next() {
					svc.Start(svc.Now(), req.Key, req.Proc)
					for done = false; !done; {
						if ok, err := svc.Await(-1); err != nil || !ok {
							t.Fatalf("%s: operation never completed (%v)", backend, err)
						}
					}
				}
				return records, last
			}
			simRecs, simLast := stream("")
			rtRecs, rtLast := stream("rt")
			var diff []string
			for rec, n := range simRecs {
				if m := rtRecs[rec]; m != n {
					diff = append(diff, fmt.Sprintf("%s: %d on sim, %d on rt", rec, n, m))
				}
			}
			for rec, m := range rtRecs {
				if simRecs[rec] == 0 {
					diff = append(diff, fmt.Sprintf("%s: 0 on sim, %d on rt", rec, m))
				}
			}
			if len(diff) > 0 {
				slices.Sort(diff)
				t.Errorf("%d completion records differ, first %s", len(diff), diff[0])
			}
			if fmt.Sprint(simLast) != fmt.Sprint(rtLast) {
				t.Errorf("per-key values differ: sim %v, rt %v", simLast, rtLast)
			}
		})
	}
}

// TestCrossBackendFaultEquivalence runs the same deterministic fault plan on
// both backends and checks that the fault layer behaves identically: same
// messages lost and duplicated, same operations completed and wedged.
//
// The plans are deliberately restricted to Nth rules pinned to processors
// whose send sequence is delivery-order independent, because that is the
// only regime where count equality is well-defined across backends: the rt
// runtime delivers concurrently, so a processor that also *responds* to
// requests interleaves its response sends with its own requests in a
// timing-dependent order. For central, processors 2 and 3 only ever send
// their own requests (the holder, processor 1, sends all replies), so their
// k-th send is their k-th request on both backends. For quorum-majority
// every processor responds, so the rule uses Every:1 — selecting every send
// is permutation-invariant, and the set of messages a processor sends is
// backend-independent even when their order is not.
func TestCrossBackendFaultEquivalence(t *testing.T) {
	const ops = 160
	cases := []struct {
		algo string
		plan sim.FaultPlan
		dup  bool // plan injects duplicates
	}{
		{
			algo: "central",
			plan: sim.FaultPlan{
				DropNth: []sim.NthRule{{Proc: 2, Every: 3}},
				DupNth:  []sim.NthRule{{Proc: 3, Every: 2}},
			},
			dup: true,
		},
		{
			algo: "quorum-majority",
			plan: sim.FaultPlan{
				DropNth: []sim.NthRule{{Proc: 2, Every: 1}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.algo, func(t *testing.T) {
			plan := tc.plan
			cfg := registry.Concurrent()
			cfg.Faults = &plan

			simC, err := registry.NewWith(tc.algo, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rtCfg := cfg
			rtCfg.Backend = "rt"
			rtC, err := registry.NewWith(tc.algo, 8, rtCfg)
			if err != nil {
				t.Fatal(err)
			}
			r, ok := rtC.(*rt.Runtime)
			if !ok {
				t.Fatalf("rt backend built %T, want *rt.Runtime", rtC)
			}

			wl := workload.Config{N: simC.N(), Ops: ops, Seed: 7, MeanGap: 4}
			// A short wedge-idle keeps the rt run fast: operations complete
			// in microseconds, so 300ms of silence means wedged, not slow.
			ecfg := engine.Config{InFlight: simC.N(), Verify: true, WedgeIdle: 300 * time.Millisecond}

			simGen, err := workload.New("uniform", wl)
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := engine.Run(simC, simGen, ecfg)
			if err != nil {
				t.Fatalf("sim run: %v", err)
			}
			rtGen, err := workload.New("uniform", wl)
			if err != nil {
				t.Fatal(err)
			}
			rtRes, err := engine.Run(r, rtGen, ecfg)
			if err != nil {
				t.Fatalf("rt run: %v", err)
			}

			if simRes.Faults == nil || rtRes.Faults == nil {
				t.Fatalf("fault stats missing: sim %v, rt %v", simRes.Faults, rtRes.Faults)
			}
			if simRes.Faults.Lost == 0 {
				t.Error("plan injected no losses — the equivalence check is vacuous")
			}
			if simRes.Faults.Lost != rtRes.Faults.Lost {
				t.Errorf("messages lost differ: sim %d, rt %d", simRes.Faults.Lost, rtRes.Faults.Lost)
			}
			if tc.dup {
				if simRes.Faults.Duplicated == 0 {
					t.Error("plan injected no duplicates — the equivalence check is vacuous")
				}
				if simRes.Faults.Duplicated != rtRes.Faults.Duplicated {
					t.Errorf("messages duplicated differ: sim %d, rt %d",
						simRes.Faults.Duplicated, rtRes.Faults.Duplicated)
				}
			}
			if simRes.Wedged == 0 {
				t.Error("no operation wedged — the drop rule never bit")
			}
			if simRes.Ops != rtRes.Ops || simRes.Wedged != rtRes.Wedged || simRes.Unserved != rtRes.Unserved {
				t.Errorf("outcome differs: sim ops/wedged/unserved %d/%d/%d, rt %d/%d/%d",
					simRes.Ops, simRes.Wedged, simRes.Unserved,
					rtRes.Ops, rtRes.Wedged, rtRes.Unserved)
			}
			for backend, res := range map[string]*engine.Result{"sim": simRes, "rt": rtRes} {
				v := res.Verification
				if v == nil {
					t.Fatalf("%s: no verification report", backend)
				}
				if v.Missing != 0 || v.Violations != 0 {
					t.Errorf("%s: missing %d, violations %d under faults (first: %s)",
						backend, v.Missing, v.Violations, v.First)
				}
			}
		})
	}
}

// TestCrossBackendServiceProfile builds central on both backends from one
// Config.Service straggler profile — processor 5 a few hundred times slower
// than its peers — and checks that the profile moves the bottleneck to that
// processor on both. Central's message load sits on the holder (processor 1
// receives every remote request), but time is messages x cost, and there the
// straggler dominates: its service time must explain the makespan
// (utilization near 1) on either substrate. A backend that dropped the
// profile finishes far too early for the time the straggler supposedly
// spent, and its utilization reads far above 1.
func TestCrossBackendServiceProfile(t *testing.T) {
	const (
		ops       = 160
		straggler = sim.ProcID(5)
		slow      = 512 // ticks; with the 1 µs tick a straggler message costs 0.5 ms
	)
	cost := func(p sim.ProcID) int64 {
		if p == straggler {
			return slow
		}
		return 1
	}
	for _, backend := range registry.Backends() {
		t.Run(backend, func(t *testing.T) {
			cfg := registry.Concurrent()
			cfg.Backend, cfg.Service = backend, cost
			c, err := registry.NewWith("central", 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.New("uniform", workload.Config{N: c.N(), Ops: ops, Seed: 7, MeanGap: 4})
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(c, gen, engine.Config{InFlight: c.N(), Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != ops || res.Verification.Violations != 0 {
				t.Fatalf("ops %d, want %d; verification %+v", res.Ops, ops, res.Verification)
			}
			if res.Wall != (backend == "rt") {
				t.Fatalf("Wall = %v on backend %q", res.Wall, backend)
			}
			_, recv := c.Loads(nil, nil)
			if recv[straggler] < 8 {
				t.Fatalf("straggler received only %d messages — the check is vacuous", recv[straggler])
			}
			busiest, busy := sim.ProcID(0), int64(0)
			for p := 1; p <= c.N(); p++ {
				if b := recv[p] * cost(sim.ProcID(p)); b > busy {
					busiest, busy = sim.ProcID(p), b
				}
			}
			if busiest != straggler || res.Loads.Bottleneck == int(straggler) {
				t.Fatalf("busiest processor %d (message-load bottleneck %d), want the straggler %d apart from the holder",
					busiest, res.Loads.Bottleneck, straggler)
			}
			makespan := float64(res.SimTime) // ticks, or ns on rt
			if res.Wall {
				makespan /= float64(res.TickNs)
			}
			// The simulator charges a message's cost after handling it, so the
			// last service may outlast the run: allow one message over 1.
			if u := float64(busy) / makespan; u < 0.5 || u > 1+1/float64(recv[straggler]-1)+0.01 {
				t.Errorf("straggler utilization %.2f (%d ticks busy of %.0f), want the bottleneck's ~1", u, busy, makespan)
			}
		})
	}
}

// TestCrossBackendScheduleIndependence re-runs the equivalence, keyed and
// service-profile checks at GOMAXPROCS 1 and 2. An rt runtime driven through
// the service lends the driving goroutine a worker, which then runs ready
// processors between completions: at GOMAXPROCS 1 the driver and one worker
// take turns on one core, at 2 the worker that stays and the driver run
// protocol code at once. Every result the three checks pin (completed and
// verified operations, per-key values and routing, the straggler as the
// saturated processor) must hold under either schedule.
func TestCrossBackendScheduleIndependence(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			t.Run("Equivalence", TestCrossBackendEquivalence)
			t.Run("KeyedEquivalence", TestCrossBackendKeyedEquivalence)
			t.Run("ServiceProfile", TestCrossBackendServiceProfile)
		})
	}
}

// TestCrossBackendDAGs records the communication DAG of every operation of
// the paper's canonical sequential workload (each processor increments
// once, in id order) on both backends, through the one OnDeliver seam, and
// requires the same DAG per operation up to the order of siblings: rt
// numbers one operation's concurrent deliveries in whichever order its
// workers reach them. It covers every exact registry row at n = 8 and
// n = 81 (run under -race in CI's rt smoke job).
//
// The quorum rows are compared one step more loosely. Their initiator
// sends its write phase from whichever read reply reaches it last, and
// which reply that is depends on the arrival order, not only on sibling
// order. For them both backends must send the same messages at the same
// causal depths (arcsByDepth).
func TestCrossBackendDAGs(t *testing.T) {
	for _, n := range []int{8, 81} {
		for _, name := range registry.ExactNames() {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				simC, err := registry.NewWith(name, n, registry.Sequential())
				if err != nil {
					t.Fatal(err)
				}
				rtCfg := registry.Sequential()
				rtCfg.Backend = "rt"
				rtC, err := registry.NewWith(name, n, rtCfg)
				if err != nil {
					t.Fatal(err)
				}
				r := rtC.(*rt.Runtime)
				defer r.Close()
				var simRec, rtRec trace.Recorder
				simC.OnDeliver(simRec.Record)
				r.OnDeliver(rtRec.Record)
				order := counter.SequentialOrder(simC.N())
				for _, c := range []counter.Async{simC, r} {
					for _, p := range order {
						if _, err := c.Inc(p); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i, p := range order {
					id := sim.OpID(i + 1)
					simD, rtD := simRec.DAG(id), rtRec.DAG(id)
					if simD == nil || rtD == nil {
						t.Fatalf("op %d by %v: DAG missing (sim %v, rt %v)", id, p, simD, rtD)
					}
					if err := rtD.Validate(); err != nil {
						t.Fatalf("op %d by %v: rt DAG: %v", id, p, err)
					}
					canon := canonicalDAG
					if strings.HasPrefix(name, "quorum-") {
						canon = arcsByDepth
					}
					if s, r := canon(simD), canon(rtD); s != r || simD.Initiator != int(p) {
						t.Fatalf("op %d by %v: DAGs differ\nsim %s\nrt  %s", id, p, s, r)
					}
				}
			})
		}
	}
}

// TestCrossBackendHotSpot runs the paper's sequential workload through
// counter.RunSequence on both backends and requires the same values and the
// same Hot Spot intersections |I_i ∩ I_{i+1}| from each, with the lemma
// holding on both. It covers every exact registry row at n = 8 and n = 81,
// in id order and in E7's random order, so the second order reproduces E7's
// Hot Spot table on real cores (run under -race in CI's rt smoke job: rt
// reports deliveries from its executors concurrently).
func TestCrossBackendHotSpot(t *testing.T) {
	orders := map[string]func(n int) []sim.ProcID{
		"sequential": counter.SequentialOrder,
		"e7":         func(n int) []sim.ProcID { return counter.RandomOrder(n, 0xE7) },
	}
	for _, n := range []int{8, 81} {
		for _, name := range registry.ExactNames() {
			for oname, order := range orders {
				t.Run(fmt.Sprintf("%s/n=%d/%s", name, n, oname), func(t *testing.T) {
					simC, err := registry.NewWith(name, n, registry.Sequential())
					if err != nil {
						t.Fatal(err)
					}
					rtCfg := registry.Sequential()
					rtCfg.Backend = "rt"
					rtC, err := registry.NewWith(name, n, rtCfg)
					if err != nil {
						t.Fatal(err)
					}
					defer rtC.(*rt.Runtime).Close()
					ord := order(simC.N())
					res := map[string]*counter.RunResult{}
					for backend, c := range map[string]counter.Async{"sim": simC, "rt": rtC} {
						r, err := counter.RunSequence(c, ord)
						if err != nil {
							t.Fatalf("%s: %v", backend, err)
						}
						if err := verify.HotSpot(r); err != nil {
							t.Fatalf("%s: %v", backend, err)
						}
						res[backend] = r
					}
					if !slices.Equal(res["sim"].Values, res["rt"].Values) {
						t.Fatalf("values differ:\nsim %v\nrt  %v", res["sim"].Values, res["rt"].Values)
					}
					if !slices.Equal(res["sim"].Shared, res["rt"].Shared) {
						t.Fatalf("intersections differ:\nsim %v\nrt  %v", res["sim"].Shared, res["rt"].Shared)
					}
				})
			}
		}
	}
}

// canonicalDAG renders a DAG as a tree term whose children are sorted, so
// two DAGs that differ only in the order of siblings render alike.
func canonicalDAG(d *trace.DAG) string {
	children := make([][]int, len(d.Nodes))
	for i, nd := range d.Nodes[1:] {
		children[nd.Parent] = append(children[nd.Parent], i+1)
	}
	var term func(node int) string
	term = func(node int) string {
		kids := make([]string, len(children[node]))
		for i, c := range children[node] {
			kids[i] = term(c)
		}
		slices.Sort(kids)
		return fmt.Sprintf("%d(%s)", d.Nodes[node].Proc, strings.Join(kids, " "))
	}
	return term(0)
}

// arcsByDepth renders a DAG as the sorted list of its arcs, each labelled
// with the sending and receiving processors and the receiver's depth.
func arcsByDepth(d *trace.DAG) string {
	depth := make([]int, len(d.Nodes))
	arcs := make([]string, 0, len(d.Nodes)-1)
	for i, nd := range d.Nodes[1:] {
		depth[i+1] = depth[nd.Parent] + 1
		arcs = append(arcs, fmt.Sprintf("%d:%d>%d", depth[i+1], d.Nodes[nd.Parent].Proc, nd.Proc))
	}
	slices.Sort(arcs)
	return strings.Join(arcs, " ")
}
