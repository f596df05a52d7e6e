package engine

import (
	"testing"

	"distcount/internal/countersvc"
	"distcount/internal/registry"
	"distcount/internal/workload"
)

func keyedGen(t *testing.T, cfg workload.Config, scenario string) workload.Generator {
	t.Helper()
	gen, err := workload.New(scenario, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func keyedSvc(t *testing.T, cfg countersvc.Config) *countersvc.Service {
	t.Helper()
	svc, err := countersvc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestRunKeyedClosed: a sharded closed-loop run completes every operation,
// attributes each to its key, and verifies cleanly per shard.
func TestRunKeyedClosed(t *testing.T) {
	const ops = 400
	svc := keyedSvc(t, countersvc.Config{Keys: 16, N: 8, Shards: 3,
		Registry: registry.Config{Window: registry.DefaultWindow}})
	gen := keyedGen(t, workload.Config{N: 8, Ops: ops, Seed: 11, Keys: 16, MeanGap: 1}, "uniform")
	res, err := RunKeyed(svc, gen, Config{InFlight: 8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != ops {
		t.Fatalf("completed %d ops, want %d", res.Ops, ops)
	}
	if res.Keys != 16 || res.Shards != 3 {
		t.Fatalf("keys/shards = %d/%d, want 16/3", res.Keys, res.Shards)
	}
	if len(res.ShardAlgos) != 3 || res.ShardAlgos[0] != "central" {
		t.Fatalf("shard algos = %v", res.ShardAlgos)
	}
	sum := 0
	for _, ks := range res.PerKey {
		sum += ks.Ops
		if ks.Shard != svc.HomeShard(ks.Key) {
			t.Fatalf("key %d reported on shard %d, home is %d", ks.Key, ks.Shard, svc.HomeShard(ks.Key))
		}
	}
	if sum != ops {
		t.Fatalf("per-key ops sum to %d, want %d", sum, ops)
	}
	if res.Verification == nil || res.KeyedVerification == nil {
		t.Fatal("verification reports missing")
	}
	if res.Verification.Violations != 0 {
		t.Fatalf("verification found %d violations: %s", res.Verification.Violations, res.Verification.First)
	}
	if len(res.KeyedVerification.Shards) != 3 {
		t.Fatalf("keyed verification covers %d shards, want 3", len(res.KeyedVerification.Shards))
	}
	if res.Throughput <= 0 || res.Latency.Mean <= 0 {
		t.Fatalf("degenerate aggregates: throughput %v, mean latency %v", res.Throughput, res.Latency.Mean)
	}
}

// TestRunKeyedDeterministic: identical config ⇒ identical keyed results on
// the sim backend, in both modes.
func TestRunKeyedDeterministic(t *testing.T) {
	for _, mode := range []Mode{Closed, Open} {
		run := func() *Result {
			svc := keyedSvc(t, countersvc.Config{Keys: 8, N: 8, Shards: 2,
				Registry: registry.Config{Window: registry.DefaultWindow}})
			gen := keyedGen(t, workload.Config{N: 8, Ops: 300, Seed: 5, Keys: 8, KeyZipfS: 1.2}, "uniform")
			res, err := RunKeyed(svc, gen, Config{Mode: mode, InFlight: 8, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.Throughput != b.Throughput || a.Latency.Mean != b.Latency.Mean ||
			a.Messages != b.Messages || a.SimTime != b.SimTime {
			t.Fatalf("mode %v not deterministic: %+v vs %+v", mode, a, b)
		}
		for k := range a.PerKey {
			if a.PerKey[k] != b.PerKey[k] {
				t.Fatalf("mode %v per-key stats diverge at key %d", mode, k)
			}
		}
	}
}

// TestRunKeyedMigration: a skewed closed-loop run triggers the hot-key
// migration mid-run; the driver's frozen-key hold resolves, the run drains,
// the hot key ends on the hot shard, and verification — including the
// epoch-partitioned segments across the cutover — is clean.
func TestRunKeyedMigration(t *testing.T) {
	for _, mode := range []Mode{Closed, Open} {
		svc := keyedSvc(t, countersvc.Config{
			Keys: 8, N: 8, Shards: 2, Algo: "central",
			Registry:  registry.Config{Window: registry.DefaultWindow},
			Migration: &countersvc.Migration{To: "combining", CheckEvery: 64, HotShare: 0.3},
		})
		gen := keyedGen(t, workload.Config{N: 8, Ops: 600, Seed: 3, Keys: 8, KeyZipfS: 1.5, MeanGap: 1}, "uniform")
		res, err := RunKeyed(svc, gen, Config{Mode: mode, InFlight: 8, Verify: true})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Ops != 600 {
			t.Fatalf("mode %v: completed %d ops, want 600 (frozen-key hold leaked?)", mode, res.Ops)
		}
		if len(res.Migrations) != 1 {
			t.Fatalf("mode %v: %d migrations, want 1", mode, len(res.Migrations))
		}
		ev := res.Migrations[0]
		if ev.Key != 0 {
			t.Fatalf("mode %v: migrated key %d, want the zipf-hottest key 0", mode, ev.Key)
		}
		if res.PerKey[0].Shard != svc.HotShard() {
			t.Fatalf("mode %v: hot key finished on shard %d, want hot shard %d", mode, res.PerKey[0].Shard, svc.HotShard())
		}
		if res.Verification.Violations != 0 {
			t.Fatalf("mode %v: %d violations across migration: %s", mode, res.Verification.Violations, res.Verification.First)
		}
		if res.KeyedVerification.MigratedKeys != 1 {
			t.Fatalf("mode %v: verifier saw %d migrated keys, want 1", mode, res.KeyedVerification.MigratedKeys)
		}
		if res.KeyedVerification.Summary.Property != "linearizable/sharded" {
			t.Fatalf("mode %v: property %q", mode, res.KeyedVerification.Summary.Property)
		}
	}
}

// TestRunKeyedWall: the rt backend drives the same keyed workload on real
// goroutines, in both modes, and verifies cleanly.
func TestRunKeyedWall(t *testing.T) {
	for _, mode := range []Mode{Closed, Open} {
		svc := keyedSvc(t, countersvc.Config{Keys: 8, N: 4, Shards: 2,
			Registry: registry.Config{Backend: "rt", Window: registry.DefaultWindow}})
		gen := keyedGen(t, workload.Config{N: 4, Ops: 120, Seed: 9, Keys: 8, MeanGap: 1}, "uniform")
		res, err := RunKeyed(svc, gen, Config{Mode: mode, InFlight: 4, Verify: true})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !res.Wall {
			t.Fatalf("mode %v: rt-backed service did not report Wall", mode)
		}
		if res.Ops != 120 {
			t.Fatalf("mode %v: completed %d ops, want 120", mode, res.Ops)
		}
		if res.Verification == nil || res.Verification.Violations != 0 {
			t.Fatalf("mode %v: verification failed: %+v", mode, res.Verification)
		}
		sum := 0
		for _, ks := range res.PerKey {
			sum += ks.Ops
		}
		if sum != 120 {
			t.Fatalf("mode %v: per-key ops sum to %d, want 120", mode, sum)
		}
	}
}

// TestRunKeyedWallStreamsVerification: a verified rt run over four shards,
// long enough for the verifier to advance many times on the frontier the
// engine reads off the service clock. Each shard runtime stamps its
// operations on its own clock; were they not moved onto the service's, an
// operation reported after an advance would start below the frontier and
// the stream would refuse it.
func TestRunKeyedWallStreamsVerification(t *testing.T) {
	const ops = 12_000
	svc := keyedSvc(t, countersvc.Config{Keys: 64, N: 8, Shards: 4,
		Registry: registry.Config{Backend: "rt", Window: registry.DefaultWindow}})
	gen := keyedGen(t, workload.Config{N: 8, Ops: ops, Seed: 4, Keys: 64, KeyZipfS: 1.2}, "uniform")
	res, err := RunKeyed(svc, gen, Config{InFlight: 8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != ops || res.Verification.Ops != ops || res.Verification.Violations != 0 {
		t.Fatalf("%d ops, verification %+v", res.Ops, res.Verification)
	}
}

// TestRunKeyedRejectsBadKey: a request addressing a key outside the
// service's key space is a sticky source error, not a panic.
func TestRunKeyedRejectsBadKey(t *testing.T) {
	svc := keyedSvc(t, countersvc.Config{Keys: 2, N: 4, Shards: 1})
	gen := keyedGen(t, workload.Config{N: 4, Ops: 50, Seed: 1, Keys: 8}, "uniform")
	if _, err := RunKeyed(svc, gen, Config{}); err == nil {
		t.Fatal("out-of-range key accepted")
	}
}
