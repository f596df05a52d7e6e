package verify

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// KeyedValue is one completed operation of a keyed (multi-counter) run:
// which shard executed it, which key it addressed, and the key's routing
// epoch when it started. The drain-before-cutover migration protocol
// guarantees every operation ran entirely within one (key, epoch) segment.
type KeyedValue struct {
	Op         sim.OpID
	Shard      int
	Key        int
	Epoch      int
	Value      int
	Start, End int64
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
// the per-(key, epoch) segment checks. missing is the number of completed
// operations whose value could not be read back (counted in the summary).
func EvaluateKeyed(guarantees []counter.Guarantee, algos []string, vals []KeyedValue, missing int, fc FaultContext) KeyedReport {
	rep := KeyedReport{}

	perShard := make([][]TimedValue, len(guarantees))
	for _, v := range vals {
		perShard[v.Shard] = append(perShard[v.Shard], TimedValue{Op: v.Op, Value: v.Value, Start: v.Start, End: v.End})
	}
	allSame := true
	for s, g := range guarantees {
		sr := ShardReport{Shard: s, Report: EvaluateWithFaults(g, perShard[s], 0, fc)}
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
	type segKey struct{ key, epoch int }
	type segment struct {
		shard int
		vals  []TimedValue
	}
	segs := map[segKey]*segment{}
	for _, v := range vals {
		sk := segKey{v.Key, v.Epoch}
		seg := segs[sk]
		if seg == nil {
			seg = &segment{shard: v.Shard}
			segs[sk] = seg
		}
		seg.vals = append(seg.vals, TimedValue{Op: v.Op, Value: v.Value, Start: v.Start, End: v.End})
	}
	rep.Segments = len(segs)
	epochsOf := map[int]int{}
	for sk := range segs {
		epochsOf[sk.key]++
	}
	rep.Keys = len(epochsOf)
	for _, epochs := range epochsOf {
		if epochs > 1 {
			rep.MigratedKeys++
		}
	}
	// One value table per shard serves all of its segments, a generation each.
	seen := make([]*valueSet, len(guarantees))
	for _, seg := range segs {
		level := guarantees[seg.shard].Level
		// Sequential-only shards make no concurrent claim; approximate
		// shards legitimately repeat values within a key (the whole-shard ε
		// bracket is the claim, checked above), so neither gets the
		// exactness segment sweeps.
		if level == counter.SequentialOnly || level == counter.Approximate {
			continue
		}
		if seen[seg.shard] == nil {
			seen[seg.shard] = newValueSet(len(perShard[seg.shard]))
		}
		set := seen[seg.shard]
		set.next()
		for _, v := range seg.vals {
			if set.add(v.Value) {
				rep.KeyDuplicates++
			}
		}
		if level == counter.Linearizable {
			realTimeOrder(seg.vals, func(TimedValue, int) { rep.KeyOrderViolations++ })
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
