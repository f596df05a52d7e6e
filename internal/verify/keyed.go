package verify

import (
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
// the summary). It is the keyed Stream's report after observing all of it.
func EvaluateKeyed(guarantees []counter.Guarantee, algos []string, vals []TimedValue, at []Placement, missing int, fc FaultContext) KeyedReport {
	s := NewKeyedStream(guarantees)
	s.observeAll(vals, at)
	return s.KeyedReport(algos, missing, fc)
}
