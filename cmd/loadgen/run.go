package main

import (
	"fmt"

	"distcount/internal/adversary"
	"distcount/internal/countersvc"
	"distcount/internal/engine"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// runOne builds a fresh counter (or, for keyed options, a sharded service
// of them: each shard an independent counter instance, keys hashed onto
// home shards, an optional -migrate hot shard) and a fresh scenario, and
// executes one engine run on the selected backend: the discrete-event
// simulator or the rt runtime on real cores.
func runOne(opt options, algo, scenario string) (*engine.Result, error) {
	if opt.keyed() && scenario == "adversarial" {
		return nil, fmt.Errorf("scenario adversarial drives a single counter; it does not compose with -keys/-shards")
	}
	rcfg, err := registryConfig(opt)
	if err != nil {
		return nil, err
	}
	wcfg := workload.Config{
		Ops:      opt.ops,
		Seed:     opt.seed,
		MeanGap:  opt.meanGap,
		ZipfS:    opt.zipfS,
		HotFrac:  opt.hotFrac,
		HotProb:  opt.hotProb,
		BurstLen: opt.burstLen,
		RateFrom: opt.rateFrom,
		RateTo:   opt.rateTo,
	}
	if opt.keyed() {
		scfg := countersvc.Config{Keys: opt.keys, N: opt.n, Shards: opt.shards, Registry: rcfg, Algo: algo}
		if opt.shardAlgo != "" {
			// One name sets every home shard; a list sets them individually.
			if list := splitList(opt.shardAlgo); len(list) == 1 {
				scfg.Algo = list[0]
			} else {
				scfg.Algo, scfg.ShardAlgos = "", list
			}
		}
		if scfg.Migration, err = parseMigrateSpec(opt.migrate); err != nil {
			return nil, err
		}
		svc, err := countersvc.New(scfg)
		if err != nil {
			return nil, err
		}
		wcfg.N, wcfg.Keys, wcfg.KeyDist, wcfg.KeyZipfS = svc.N(), opt.keys, opt.keyDist, opt.keyZipfS
		gen, err := workload.New(scenario, wcfg)
		if err != nil {
			return nil, err
		}
		return engine.RunKeyed(svc, gen, engineConfig(opt, opt.ops))
	}
	c, err := registry.NewWith(algo, opt.n, rcfg)
	if err != nil {
		return nil, err
	}
	// Scenarios are sized to the actual network (structured algorithms
	// round n up).
	wcfg.N = c.N()
	ops := opt.ops
	var gen workload.Generator
	if scenario == "adversarial" {
		gen, err = adversarialReplay(algo, c.N(), opt.ops, opt.seed, opt.meanGap)
		ops = min(ops, c.N()) // the replay is the canonical workload: each processor once
	} else {
		gen, err = workload.New(scenario, wcfg)
	}
	if err != nil {
		return nil, err
	}
	return engine.Run(c, gen, engineConfig(opt, ops))
}

// registryConfig resolves the options into the counter construction config:
// backend, merge window, claimed ε, service-cost profile and fault plan.
func registryConfig(opt options) (rcfg registry.Config, err error) {
	rcfg = registry.Config{Window: opt.window, Epsilon: opt.epsilon, Backend: opt.backend}
	if rcfg.Service, err = serviceCost(opt.service, opt.svcDist); err != nil {
		return rcfg, err
	}
	rcfg.Faults, err = parseFaultSpec(opt.faults)
	return rcfg, err
}

// engineConfig is the driver config of a run expected to complete ops
// operations (the count preallocates the engine's per-op metric slices and
// sizes the default warmup).
func engineConfig(opt options, ops int) engine.Config {
	cfg := engine.Config{
		Mode:        opt.mode,
		Ops:         ops,
		InFlight:    opt.inflight,
		QueueCap:    opt.queueCap,
		Warmup:      opt.warmup,
		SampleEvery: opt.sample,
		KneeBuckets: opt.kneeBuckets,
		Verify:      opt.verify,
	}
	if cfg.Warmup < 0 {
		cfg.Warmup = ops / 10
	}
	return cfg
}

// serviceCost resolves the -service/-service-dist pair into a
// per-processor cost function in ticks (registry.Config.Service). Nil (with
// no error) when service is 0 and the distribution is the default flat shape.
func serviceCost(service int64, dist string) (func(p sim.ProcID) int64, error) {
	if service <= 0 {
		if dist != "" && dist != "flat" {
			return nil, fmt.Errorf("-service-dist %s needs -service > 0", dist)
		}
		return nil, nil
	}
	switch dist {
	case "", "flat":
		return func(sim.ProcID) int64 { return service }, nil
	case "halfslow":
		// Mixed hardware: every second processor runs at a quarter of the
		// rate. Spreading the slow half across the id space hits leaf and
		// internal roles alike in the structured algorithms.
		return func(p sim.ProcID) int64 {
			if p%2 == 0 {
				return 4 * service
			}
			return service
		}, nil
	case "straggler":
		// One badly provisioned machine. Processor 1 roots several of the
		// structured schemes, so this is the adversarial placement.
		return func(p sim.ProcID) int64 {
			if p == 1 {
				return 8 * service
			}
			return service
		}, nil
	}
	return nil, fmt.Errorf("unknown -service-dist %q (have flat, halfslow, straggler)", dist)
}

// distLabel is the ServiceDist value recorded on report rows: the named
// distribution when a service cost is active, "" when the network has no
// service model at all.
func distLabel(service int64, dist string) string {
	if service <= 0 {
		return ""
	}
	if dist == "" {
		return "flat"
	}
	return dist
}

// adversarialReplay runs the Lower Bound Theorem's constructive workload
// sequentially against a fresh instance of the algorithm and converts the
// chosen initiator order into a replay scenario, truncated to at most ops
// operations (the adversary's order is one per processor, so the stream is
// also capped at n). The sampled adversary (subset of candidates per step)
// keeps this affordable at CLI sizes.
func adversarialReplay(algo string, n, ops int, seed uint64, gap int64) (workload.Generator, error) {
	probe, err := registry.New(algo, n)
	if err != nil {
		return nil, err
	}
	sampleSize := 8
	res, err := adversary.Run(probe, adversary.SampleSize(sampleSize), adversary.WithSeed(seed))
	if err != nil {
		return nil, fmt.Errorf("adversary against %s: %w", algo, err)
	}
	order := make([]sim.ProcID, len(res.Steps))
	for i, st := range res.Steps {
		order[i] = st.Chosen
	}
	if ops < len(order) {
		order = order[:ops]
	}
	return workload.Replay("adversarial", order, gap), nil
}
