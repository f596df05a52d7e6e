package distcount_test

import (
	"strings"
	"testing"

	"distcount"
)

func TestQuickstartFlow(t *testing.T) {
	c := distcount.NewTreeCounter(2)
	if c.N() != 8 {
		t.Fatalf("n = %d, want 8", c.N())
	}
	res, err := distcount.RunSequence(c, distcount.RandomOrder(c.N(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 8 {
		t.Fatalf("values = %v", res.Values)
	}
	sum := distcount.Loads(c)
	if sum.Bottleneck < 1 || sum.MaxLoad == 0 {
		t.Fatalf("summary wrong: %+v", sum)
	}
}

func TestNewTreeCounterForSize(t *testing.T) {
	c := distcount.NewTreeCounterForSize(100)
	if c.K() != 4 || c.N() != 1024 {
		t.Fatalf("k=%d n=%d, want 4/1024", c.K(), c.N())
	}
}

func TestAlgorithmsAndNew(t *testing.T) {
	algos := distcount.Algorithms()
	if len(algos) != 14 {
		t.Fatalf("algorithms = %v", algos)
	}
	if got := len(distcount.ExactAlgorithms()) + len(distcount.ApproximateAlgorithms()); got != len(algos) {
		t.Fatalf("exact + approximate = %d, want %d", got, len(algos))
	}
	for _, a := range algos {
		c, err := distcount.New(a, 8)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		// Approximate algorithms pass the exact sequential check too: below
		// their warmup count every operation takes the exact synchronous
		// path.
		if err := distcount.VerifyCounter(c, distcount.SequentialOrder(c.N())); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	if _, err := distcount.New("bogus", 8); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

// TestNewOptions exercises the options surface of the redesigned
// constructor: ε override and default, reported through the Guarantee
// contract.
func TestNewOptions(t *testing.T) {
	c, err := distcount.New("gxu-threshold", 8, distcount.WithEpsilon(0.2))
	if err != nil {
		t.Fatal(err)
	}
	g := c.Guarantee()
	if g.Epsilon != 0.2 || g.String() != "approximate(0.2)" {
		t.Fatalf("guarantee = %v, want approximate(0.2)", g)
	}

	d, err := distcount.New("css-sample", 8)
	if err != nil {
		t.Fatal(err)
	}
	eps, ok := distcount.DefaultEpsilon("css-sample")
	if !ok || eps <= 0 {
		t.Fatalf("DefaultEpsilon(css-sample) = %v, %v", eps, ok)
	}
	if g := d.Guarantee(); g.Epsilon != eps {
		t.Fatalf("default guarantee = %v, want ε=%v", g, eps)
	}

	// Exact algorithms ignore the override and keep their bare level.
	e, err := distcount.New("central", 4, distcount.WithEpsilon(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if g := e.Guarantee(); g.Epsilon != 0 || g.String() != "linearizable" {
		t.Fatalf("central guarantee = %v, want linearizable", g)
	}

	if _, ok := distcount.DefaultEpsilon("central"); ok {
		t.Fatal("central reported a default epsilon")
	}
}

func TestBoundHelpers(t *testing.T) {
	if distcount.SolveK(81) != 3 || distcount.SizeFor(3) != 81 {
		t.Fatal("bound arithmetic broken")
	}
	if k := distcount.KReal(81); k < 2.99 || k > 3.01 {
		t.Fatalf("KReal(81) = %v", k)
	}
}

func TestAdversaryThroughFacade(t *testing.T) {
	c, err := distcount.New("central", 8)
	if err != nil {
		t.Fatal(err)
	}
	cl, ok := c.(distcount.Cloneable)
	if !ok {
		t.Fatal("central not cloneable")
	}
	res, err := distcount.RunAdversary(cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := distcount.VerifyAdversary(res); err != nil {
		t.Fatal(err)
	}
	if res.Summary.MaxLoad < int64(res.BoundK) {
		t.Fatalf("bottleneck %d below bound %d", res.Summary.MaxLoad, res.BoundK)
	}
}

func TestExperimentFacade(t *testing.T) {
	if got := len(distcount.Experiments()); got != 14 {
		t.Fatalf("experiments = %d, want 14", got)
	}
	out, err := distcount.RunExperiment("E3", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "level 0") {
		t.Fatalf("E3 output unexpected:\n%s", out)
	}
	if _, err := distcount.RunExperiment("E99", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestWorkloadFacade(t *testing.T) {
	if len(distcount.Scenarios()) == 0 {
		t.Fatal("no scenarios registered")
	}
	algos := distcount.Algorithms()
	if len(algos) < 3 {
		t.Fatalf("algorithms = %v, want at least 3", algos)
	}
	c, err := distcount.New("ctree", 27, distcount.InConcurrentRegime())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := distcount.NewScenario("hotspot", distcount.ScenarioConfig{N: c.N(), Ops: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := distcount.RunWorkload(c, sc, distcount.WorkloadConfig{InFlight: 6, Warmup: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 200 || rep.Measured != 180 {
		t.Fatalf("ops/measured = %d/%d, want 200/180", rep.Ops, rep.Measured)
	}
	if rep.Throughput <= 0 || rep.Latency.P99 < rep.Latency.P50 || len(rep.Series) == 0 {
		t.Fatalf("report incoherent: %+v", rep)
	}

	// Every registered algorithm is async-capable since the per-initiator
	// op-state refactor, including the quorum counters.
	qc, err := distcount.New("quorum-majority", 9, distcount.InConcurrentRegime())
	if err != nil {
		t.Fatalf("quorum-majority must build async: %v", err)
	}
	qs, err := distcount.NewScenario("uniform", distcount.ScenarioConfig{N: qc.N(), Ops: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	qrep, err := distcount.RunWorkload(qc, qs, distcount.WorkloadConfig{InFlight: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if qrep.Verification == nil || qrep.Verification.Ops != 50 {
		t.Fatalf("verification missing or incomplete: %+v", qrep.Verification)
	}
	if _, err := distcount.NewScenario("bogus", distcount.ScenarioConfig{N: 4, Ops: 4}); err == nil {
		t.Fatal("bogus scenario accepted")
	}
}

// TestRTBackendThroughFacade: a counter built WithBackend("rt") runs through
// the same RunWorkload call, reports in wall units and verifies — and
// WithServiceTime reaches it. Central's holder handles one message per
// remote operation, one at a time, so the run cannot finish sooner than that
// many service times; without the cost it takes a fraction of a millisecond.
func TestRTBackendThroughFacade(t *testing.T) {
	const service = 20 // ticks of 1 µs
	c, err := distcount.New("central", 8, distcount.InConcurrentRegime(),
		distcount.WithBackend("rt"), distcount.WithServiceTime(service))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := distcount.NewScenario("uniform", distcount.ScenarioConfig{N: c.N(), Ops: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := distcount.RunWorkload(c, sc, distcount.WorkloadConfig{InFlight: 8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Wall || rep.TickNs != 1000 || rep.Ops != 200 {
		t.Fatalf("wall/tick_ns/ops = %v/%d/%d, want true/1000/200", rep.Wall, rep.TickNs, rep.Ops)
	}
	if v := rep.Verification; v == nil || v.Ops != 200 || v.Violations != 0 {
		t.Fatalf("verification: %+v", v)
	}
	if floor := rep.Messages / 2 * service * rep.TickNs; rep.SimTime < floor {
		t.Fatalf("run took %d ns, below the holder's %d ns of service: WithServiceTime was dropped", rep.SimTime, floor)
	}

	if _, err := distcount.New("central", 8, distcount.WithBackend("bogus")); err == nil {
		t.Fatal("bogus backend accepted")
	}
	if _, err := distcount.New("central", 8, distcount.WithServiceTime(-1)); err == nil {
		t.Fatal("negative service time accepted")
	}
}

func TestKeyedFacade(t *testing.T) {
	svc, err := distcount.NewCountingService(distcount.ServiceConfig{Keys: 8, N: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := distcount.NewScenario("uniform", distcount.ScenarioConfig{N: svc.N(), Ops: 120, Seed: 3, Keys: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := distcount.RunKeyedWorkload(svc, sc, distcount.WorkloadConfig{InFlight: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 120 || rep.Keys != 8 || rep.Shards != 2 || len(rep.PerKey) != 8 {
		t.Fatalf("ops/keys/shards/per-key = %d/%d/%d/%d, want 120/8/2/8", rep.Ops, rep.Keys, rep.Shards, len(rep.PerKey))
	}
	if v := rep.KeyedVerification; v == nil || rep.Verification.Violations != 0 {
		t.Fatalf("keyed verification: %+v / %+v", v, rep.Verification)
	}
	if _, err := distcount.NewCountingService(distcount.ServiceConfig{N: 8}); err == nil {
		t.Fatal("service without keys accepted")
	}
}

// rtCentral builds the central counter on the rt backend, closed when the
// test ends.
func rtCentral(t *testing.T) distcount.AsyncCounter {
	t.Helper()
	c, err := distcount.New("central", 8, distcount.WithBackend("rt"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.(interface{ Close() }).Close)
	return c
}

// TestRunSequenceOnRT: the sequential driver runs on the rt backend as on
// the simulator — the canonical workload hands out 0..n-1 in order.
func TestRunSequenceOnRT(t *testing.T) {
	c := rtCentral(t)
	res, err := distcount.RunSequence(c, distcount.SequentialOrder(c.N()))
	if err != nil {
		t.Fatalf("RunSequence on rt: %v", err)
	}
	for i, v := range res.Values {
		if v != i {
			t.Fatalf("op %d returned %d, want %d (values %v)", i, v, i, res.Values)
		}
	}
	if len(res.Values) != c.N() {
		t.Fatalf("%d values for %d operations", len(res.Values), c.N())
	}
}

// TestVerifyCounterOnRT: VerifyCounter's sequential and Hot Spot checks
// pass on an rt counter.
func TestVerifyCounterOnRT(t *testing.T) {
	c := rtCentral(t)
	if err := distcount.VerifyCounter(c, distcount.SequentialOrder(c.N())); err != nil {
		t.Fatalf("VerifyCounter on rt: %v", err)
	}
}

// TestLoadsOnRT: Loads summarizes an rt counter from the runtime's own
// per-processor counts. Seven remote increments on central cost the holder
// p1 one request and one reply each.
func TestLoadsOnRT(t *testing.T) {
	c := rtCentral(t)
	for p := 2; p <= c.N(); p++ {
		if _, err := c.Inc(distcount.ProcID(p)); err != nil {
			t.Fatal(err)
		}
	}
	s := distcount.Loads(c)
	if s.Bottleneck != 1 || s.MaxLoad != 14 || s.TotalMessages != 14 {
		t.Fatalf("rt loads: bottleneck p%d, max %d, total %d; want p1, 14, 14", s.Bottleneck, s.MaxLoad, s.TotalMessages)
	}
}
