package registry_test

import (
	"testing"
	"time"

	"distcount/internal/countersvc"
	"distcount/internal/engine"
	"distcount/internal/registry"
	"distcount/internal/rng"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// randomPlan draws one fault plan of the given family from r. The families
// partition the fault surface: probabilistic message faults, explicit
// crash/recover windows (with and without frozen mailboxes), and membership
// churn. Every plan is itself deterministic once built — the randomness
// here only explores the plan space.
func randomPlan(family string, r *rng.Source) sim.FaultPlan {
	switch family {
	case "lossdup":
		return sim.FaultPlan{
			Seed: uint64(r.Intn(1000) + 1),
			Loss: 0.01 + 0.07*r.Float64(),
			Dup:  0.05 * r.Float64(),
		}
	case "crash":
		plan := sim.FaultPlan{Freeze: r.Intn(2) == 0}
		for i, k := 0, r.Intn(2)+1; i < k; i++ {
			d := sim.Downtime{
				Proc: sim.ProcID(r.Intn(8) + 1),
				From: int64(r.Intn(400)),
			}
			if r.Intn(3) > 0 { // 2/3 of windows recover
				d.To = d.From + int64(r.Intn(150)+50)
			}
			plan.Crashes = append(plan.Crashes, d)
		}
		return plan
	case "churn":
		period := int64(r.Intn(350) + 50)
		return sim.FaultPlan{Churn: &sim.ChurnSpec{
			Procs:  r.Intn(3) + 1,
			Period: period,
			Down:   int64(r.Intn(int(period))) + 1,
		}}
	}
	panic("unknown plan family " + family)
}

// TestFaultPropertyNoSilentFailures is the verification-first property of
// the fault layer, checked over seeded random plans from every family
// against every registered algorithm: no run ever reports a consistency
// violation without the injected faults being on record. Fault-attributable
// anomalies land in Excused (and only when faults actually fired); genuine
// violations — which would mean an algorithm silently returned wrong values
// under faults — fail the test. Operations are conserved: every request
// either completes, wedges visibly, or is reported unserved.
func TestFaultPropertyNoSilentFailures(t *testing.T) {
	const (
		n   = 8
		ops = 120
	)
	for _, family := range []string{"lossdup", "crash", "churn"} {
		for ai, name := range registry.Names() {
			t.Run(family+"/"+name, func(t *testing.T) {
				// One deterministic plan per (family, algorithm) pair: the
				// grid stays reproducible while still covering the space.
				r := rng.New(uint64(1000 + ai))
				plan := randomPlan(family, r)

				cfg := registry.Concurrent()
				cfg.Faults = &plan
				c, err := registry.NewWith(name, n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				gen, err := workload.New("uniform", workload.Config{
					N: c.N(), Ops: ops, Seed: 7, MeanGap: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := engine.Run(c, gen, engine.Config{InFlight: c.N(), Verify: true})
				if err != nil {
					t.Fatalf("run under %+v: %v", plan, err)
				}

				checkNoSilentFailures(t, plan, res, ops)
			})
		}
	}
}

// checkNoSilentFailures asserts the fault layer's four invariants on one run:
// no violation, anomalies excused only with faults on record, every request
// completed, wedged or unserved, and wedged operations only with faults on
// record.
func checkNoSilentFailures(t *testing.T, plan sim.FaultPlan, res *engine.Result, ops int) {
	t.Helper()
	v := res.Verification
	if v == nil {
		t.Fatal("no verification report")
	}
	if v.Violations != 0 {
		t.Errorf("plan %+v: %d violations (first: %s) — a fault-injected run must stay correct or stall visibly",
			plan, v.Violations, v.First)
	}
	if v.Excused > 0 && !v.FaultsFired {
		t.Errorf("plan %+v: %d anomalies excused but no fault on record", plan, v.Excused)
	}
	if got := res.Ops + res.Wedged + res.Unserved; got != ops {
		t.Errorf("plan %+v: ops %d + wedged %d + unserved %d = %d, want %d — operations leaked",
			plan, res.Ops, res.Wedged, res.Unserved, got, ops)
	}
	if res.Wedged > 0 && (res.Faults == nil || !res.Faults.Any()) {
		t.Errorf("plan %+v: %d operations wedged with no fault on record", plan, res.Wedged)
	}
}

// keyedFaultService is the service the keyed fault tests drive: 8 keys over 2
// central home shards with a combining hot shard, the detector tuned low
// enough that a skewed stream migrates its hottest key within the first few
// dozen completions — while the plan is already firing.
func keyedFaultService(t *testing.T, backend string, plan sim.FaultPlan) *countersvc.Service {
	t.Helper()
	cfg := registry.Concurrent()
	cfg.Backend, cfg.Faults = backend, &plan
	svc, err := countersvc.New(countersvc.Config{Keys: 8, N: 8, Shards: 2, Registry: cfg,
		Migration: &countersvc.Migration{To: "combining", HotShare: 0.2, CheckEvery: 16}})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestKeyedFaultPropertyNoSilentFailures is the property above through the
// service layer, judged by the keyed verifier: the same three plan families,
// every shard under the plan, and a hot-key migration whose freeze, drain and
// cutover run while the faults fire. A key frozen behind a wedged operation
// never drains, so its held requests end unserved, not lost.
func TestKeyedFaultPropertyNoSilentFailures(t *testing.T) {
	const ops = 240
	migrated := 0
	for _, family := range []string{"lossdup", "crash", "churn"} {
		for seed := uint64(0); seed < 4; seed++ {
			plan := randomPlan(family, rng.New(2000+seed))
			svc := keyedFaultService(t, "sim", plan)
			gen, err := workload.New("uniform", workload.Config{
				N: 8, Ops: ops, Seed: 7 + seed, MeanGap: 4, Keys: 8, KeyDist: "zipf", KeyZipfS: 1.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.RunKeyed(svc, gen, engine.Config{InFlight: 8, Verify: true})
			if err != nil {
				t.Fatalf("%s: run under %+v: %v", family, plan, err)
			}
			if res.KeyedVerification == nil {
				t.Fatalf("%s: no keyed verification report", family)
			}
			checkNoSilentFailures(t, plan, res, ops)
			migrated += len(res.Migrations)
		}
	}
	if migrated == 0 {
		t.Fatal("no run migrated a key: the cutover never ran under faults")
	}
}

// TestKeyedFaultWedgeEndsWithinWedgeIdle: a keyed run on rt whose holder
// crashes for good wedges, and the service's fault record switches the wait
// for further completions from the 30 s stall timeout to WedgeIdle.
func TestKeyedFaultWedgeEndsWithinWedgeIdle(t *testing.T) {
	const ops, wedgeIdle = 200, 100 * time.Millisecond
	plan := sim.FaultPlan{Crashes: []sim.Downtime{{Proc: 1, From: 0}}}
	svc := keyedFaultService(t, "rt", plan)
	gen, err := workload.New("uniform", workload.Config{N: 8, Ops: ops, Seed: 3, MeanGap: 1, Keys: 8})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := engine.RunKeyed(svc, gen, engine.Config{InFlight: 8, Verify: true, WedgeIdle: wedgeIdle})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 10*wedgeIdle+2*time.Second {
		t.Fatalf("wedged keyed run took %v to end, want about WedgeIdle %v", took, wedgeIdle)
	}
	if res.Wedged == 0 || res.Faults == nil || res.Faults.CrashDropped == 0 {
		t.Fatalf("wedged %d, faults %+v: want the crashed holder to wedge operations", res.Wedged, res.Faults)
	}
	checkNoSilentFailures(t, plan, res, ops)
}
