package verify

import (
	"fmt"
	"slices"

	"distcount/internal/counter"
)

// Placement says where one completed operation of a keyed (multi-counter)
// run executed: which shard, which key it addressed, and the key's routing
// epoch when it started. The drain-before-cutover migration protocol
// guarantees every operation ran entirely within one (key, epoch) segment.
type Placement struct {
	Shard, Key, Epoch int32
}

// ShardReport is one shard's history evaluated at its algorithm's claimed
// consistency level.
type ShardReport struct {
	Shard     int    `json:"shard"`
	Algorithm string `json:"algorithm,omitempty"`
	Report
}

// KeyedReport is the verification result of a keyed run.
//
// Histories partition two ways. By SHARD: a shard is one counter instance
// handing out its own 0,1,2,... sequence to all keys routed to it, so the
// shard history is the unit on which the claimed consistency level is
// meaningful — it gets the full Evaluate (duplicates, gaps, real-time
// order). This stays true across a migration: the migrated key's operations
// simply stop appearing in the old shard's history and start appearing in
// the new one's; both shard histories remain contiguous value spaces. By
// (KEY, EPOCH): within a segment all operations belong to one key on one
// shard, so any duplicate or real-time-order inversion among them is
// attributable to that key — the per-key counters localize which key an
// anomaly hit. Operations of the same key in different epochs ran on
// different shards with independent value sequences, which is exactly why
// they must NOT be compared against each other — the partition by epoch is
// what keeps verification clean across a migration.
//
// Summary aggregates the shard reports into one Report so the existing
// render/gate paths treat a keyed run like any other; the per-key counters
// are measurements (subsets of the shard-level counts), not added again.
type KeyedReport struct {
	Shards []ShardReport `json:"shards"`
	// Keys is the number of distinct keys observed; Segments the number of
	// (key, epoch) segments checked.
	Keys     int `json:"keys"`
	Segments int `json:"segments"`
	// KeyDuplicates and KeyOrderViolations count anomalies localized
	// within a single (key, epoch) segment, evaluated at the owning
	// shard's claimed level (0 for sequential-only shards, order included
	// only for linearizable shards).
	KeyDuplicates      int `json:"key_duplicates"`
	KeyOrderViolations int `json:"key_order_violations"`
	// MigratedKeys counts keys observed in more than one epoch.
	MigratedKeys int    `json:"migrated_keys,omitempty"`
	Summary      Report `json:"summary"`
}

// EvaluateKeyed checks a keyed run: each shard's history against its own
// claimed guarantee (guarantees and algos are indexed by shard), plus
// the per-(key, epoch) segment checks. vals is the run's history in
// completion order and at[i] where vals[i] executed; missing is the number
// of completed operations whose value could not be read back (counted in
// the summary).
func EvaluateKeyed(guarantees []counter.Guarantee, algos []string, vals []TimedValue, at []Placement, missing int, fc FaultContext) KeyedReport {
	rep := KeyedReport{}

	// The shard histories, then the segments, are one index list over vals
	// grouped two ways — 8 transient bytes per operation, where a copy per
	// shard and another per segment would triple the history.
	order := make([]int32, len(vals))
	shards := groupStable(order, len(guarantees), func(i int) int { return int(at[i].Shard) })
	allSame := true
	for s, g := range guarantees {
		sr := ShardReport{Shard: s, Report: evaluate(g, history{vals, order[shards[s]:shards[s+1]]}, 0, fc)}
		if s < len(algos) {
			sr.Algorithm = algos[s]
		}
		rep.Shards = append(rep.Shards, sr)
		if g != guarantees[0] {
			allSame = false
		}
	}

	// (key, epoch) segments: group, then run the duplicate + real-time
	// order sweeps within each, at the owning shard's level.
	type segKey struct{ key, epoch int32 }
	segOf := map[segKey]int32{}
	var segShard []int32 // per segment: the shard its first operation ran on
	seg := make([]int32, len(vals))
	epochsOf := map[int32]int{}
	for i, p := range at {
		sk := segKey{p.Key, p.Epoch}
		id, ok := segOf[sk]
		if !ok {
			id = int32(len(segShard))
			segOf[sk] = id
			segShard = append(segShard, p.Shard)
			epochsOf[p.Key]++
		}
		seg[i] = id
	}
	rep.Segments = len(segShard)
	rep.Keys = len(epochsOf)
	for _, epochs := range epochsOf {
		if epochs > 1 {
			rep.MigratedKeys++
		}
	}
	segs := groupStable(order, len(segShard), func(i int) int { return int(seg[i]) })
	// One value table per shard serves all of its segments, a generation each.
	seen := make([]*valueSet, len(guarantees))
	for id, shard := range segShard {
		members := order[segs[id]:segs[id+1]]
		level := guarantees[shard].Level
		// Sequential-only shards make no concurrent claim; approximate
		// shards legitimately repeat values within a key (the whole-shard ε
		// bracket is the claim, checked above), so neither gets the
		// exactness segment sweeps.
		if level == counter.SequentialOnly || level == counter.Approximate {
			continue
		}
		if seen[shard] == nil {
			seen[shard] = newValueSet(shards[shard+1] - shards[shard])
		}
		set := seen[shard]
		set.next()
		for _, i := range members {
			if set.add(vals[i].Value) {
				rep.KeyDuplicates++
			}
		}
		if level == counter.Linearizable {
			realTimeOrder(history{vals, members}, func(TimedValue, int) { rep.KeyOrderViolations++ })
		}
	}

	// Summary: shard reports aggregated into one Report so keyed results
	// render and gate through the single-counter paths unchanged.
	sum := &rep.Summary
	sum.Missing = missing
	sum.Wedged = fc.Wedged
	sum.FaultsFired = fc.Fired
	for _, sr := range rep.Shards {
		sum.Ops += sr.Ops
		sum.Duplicates += sr.Duplicates
		sum.Gaps += sr.Gaps
		sum.OrderViolations += sr.OrderViolations
		sum.Violations += sr.Violations
		sum.Excused += sr.Excused
		sum.OutOfBound += sr.OutOfBound
		if sr.MaxRelError > sum.MaxRelError {
			sum.MaxRelError = sr.MaxRelError
		}
		if sum.First == "" && sr.First != "" {
			sum.First = fmt.Sprintf("shard %d (%s): %s", sr.Shard, sr.Algorithm, sr.First)
		}
	}
	sum.Violations += missing
	if missing > 0 && sum.First == "" {
		sum.First = fmt.Sprintf("%d operations completed without delivering a value", missing)
	}
	if allSame && len(guarantees) > 0 {
		sum.Property = guarantees[0].String() + "/sharded"
		sum.Epsilon = guarantees[0].Epsilon
	} else {
		sum.Property = "mixed/sharded"
	}
	return rep
}

// groupStable fills order with the indices 0..len(order)-1 grouped by
// group(i) in [0, groups), each group in index order, and returns the
// groups' bounds: group g is order[bounds[g]:bounds[g+1]].
func groupStable(order []int32, groups int, group func(i int) int) (bounds []int) {
	bounds = make([]int, groups+1)
	for i := range order {
		bounds[group(i)+1]++
	}
	for g := 0; g < groups; g++ {
		bounds[g+1] += bounds[g]
	}
	next := slices.Clone(bounds[:groups])
	for i := range order {
		g := group(i)
		order[next[g]] = int32(i)
		next[g]++
	}
	return bounds
}
