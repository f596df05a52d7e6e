package verify

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// keyedOp is one keyed completion: its value and where it executed.
type keyedOp struct {
	TimedValue
	Placement
}

func kv(op, shard, key, epoch, value int, start, end int64) keyedOp {
	return keyedOp{
		TimedValue{Op: sim.OpID(op), Value: value, Start: start, End: end},
		Placement{Shard: int32(shard), Key: int32(key), Epoch: int32(epoch)},
	}
}

// evaluateKeyed hands EvaluateKeyed the history as the engine records it:
// the values, and beside them their placements.
func evaluateKeyed(guarantees []counter.Guarantee, algos []string, ops []keyedOp, missing int, fc FaultContext) KeyedReport {
	vals := make([]TimedValue, len(ops))
	at := make([]Placement, len(ops))
	for i, op := range ops {
		vals[i], at[i] = op.TimedValue, op.Placement
	}
	return EvaluateKeyed(guarantees, algos, vals, at, missing, fc)
}

// TestEvaluateKeyedClean: two shards, interleaved keys, each shard handing
// out its own contiguous sequence — no violations anywhere.
func TestEvaluateKeyedClean(t *testing.T) {
	vals := []keyedOp{
		kv(1, 0, 0, 0, 0, 0, 2),
		kv(2, 0, 2, 0, 1, 3, 5),
		kv(1, 1, 1, 0, 0, 0, 2),
		kv(2, 1, 3, 0, 1, 3, 5),
		kv(3, 0, 0, 0, 2, 6, 8),
	}
	rep := evaluateKeyed([]counter.Guarantee{counter.Exact(counter.Linearizable), counter.Exact(counter.Linearizable)},
		[]string{"central", "central"}, vals, 0, FaultContext{})
	if rep.Summary.Violations != 0 {
		t.Fatalf("clean history reported %d violations: %+v", rep.Summary.Violations, rep.Summary)
	}
	if rep.Keys != 4 || rep.Segments != 4 {
		t.Fatalf("keys/segments = %d/%d, want 4/4", rep.Keys, rep.Segments)
	}
	if rep.Summary.Ops != 5 {
		t.Fatalf("summary ops = %d, want 5", rep.Summary.Ops)
	}
	if rep.Summary.Property != "linearizable/sharded" {
		t.Fatalf("property = %q", rep.Summary.Property)
	}
	if rep.MigratedKeys != 0 {
		t.Fatalf("migrated keys = %d, want 0", rep.MigratedKeys)
	}
}

// TestEvaluateKeyedShardViolationLocalized: a duplicate inside one shard is
// a violation of that shard and of the summary, and when both duplicated
// ops belong to one key it is localized as a key duplicate too.
func TestEvaluateKeyedShardViolationLocalized(t *testing.T) {
	vals := []keyedOp{
		kv(1, 0, 5, 0, 0, 0, 2),
		kv(2, 0, 5, 0, 0, 3, 5), // duplicate value 0, same key
		kv(1, 1, 6, 0, 0, 0, 2),
		kv(2, 1, 7, 0, 1, 3, 5),
	}
	rep := evaluateKeyed([]counter.Guarantee{counter.Exact(counter.Quiescent), counter.Exact(counter.Quiescent)},
		[]string{"difftree", "difftree"}, vals, 0, FaultContext{})
	if rep.Shards[0].Violations == 0 {
		t.Fatal("shard 0 duplicate not flagged")
	}
	if rep.Shards[1].Violations != 0 {
		t.Fatalf("clean shard 1 flagged: %+v", rep.Shards[1].Report)
	}
	if rep.Summary.Violations != rep.Shards[0].Violations {
		t.Fatalf("summary violations %d != shard 0 violations %d", rep.Summary.Violations, rep.Shards[0].Violations)
	}
	if rep.KeyDuplicates != 1 {
		t.Fatalf("key duplicates = %d, want 1", rep.KeyDuplicates)
	}
	if !strings.Contains(rep.Summary.First, "shard 0") {
		t.Fatalf("first violation does not name the shard: %q", rep.Summary.First)
	}
}

// TestEvaluateKeyedMigrationEpochsNotCompared: a migrated key's operations
// restart at a small value on the new shard; because epochs partition the
// key's history, the restart is not an order violation — while the same
// restart WOULD be flagged if the epochs were (wrongly) merged.
func TestEvaluateKeyedMigrationEpochsNotCompared(t *testing.T) {
	vals := []keyedOp{
		// Shard 0, monotone sequential history: key 1 takes 0..4, then
		// key 9 (epoch 0) takes 5 and 6, then key 1 takes 7.
		kv(3, 0, 1, 0, 0, 0, 2), kv(4, 0, 1, 0, 1, 3, 5), kv(5, 0, 1, 0, 2, 6, 8),
		kv(6, 0, 1, 0, 3, 9, 11), kv(7, 0, 1, 0, 4, 12, 14),
		kv(1, 0, 9, 0, 5, 15, 17),
		kv(2, 0, 9, 0, 6, 18, 20),
		kv(8, 0, 1, 0, 7, 21, 23),
		// Epoch 1 on shard 1 (post-migration): key 9 restarts at value 0,
		// strictly after its epoch-0 ops completed — an inversion if the
		// epochs were wrongly merged.
		kv(1, 1, 9, 1, 0, 30, 32),
		kv(2, 1, 9, 1, 1, 33, 35),
	}
	rep := evaluateKeyed([]counter.Guarantee{counter.Exact(counter.Linearizable), counter.Exact(counter.Linearizable)},
		[]string{"central", "combining"}, vals, 0, FaultContext{})
	if rep.Summary.Violations != 0 {
		t.Fatalf("migration history reported %d violations (first: %s)", rep.Summary.Violations, rep.Summary.First)
	}
	if rep.KeyOrderViolations != 0 {
		t.Fatalf("epoch partition leaked: %d key order violations", rep.KeyOrderViolations)
	}
	if rep.MigratedKeys != 1 {
		t.Fatalf("migrated keys = %d, want 1", rep.MigratedKeys)
	}
	if rep.Segments != 3 {
		t.Fatalf("segments = %d, want 3", rep.Segments)
	}
}

// TestEvaluateKeyedOrderViolationWithinSegment: a real-time order inversion
// between two ops of the same key in the same epoch is flagged both at the
// shard level and as a key-localized order violation.
func TestEvaluateKeyedOrderViolationWithinSegment(t *testing.T) {
	vals := []keyedOp{
		kv(1, 0, 2, 0, 1, 0, 2),
		kv(2, 0, 2, 0, 0, 5, 7), // starts after value 1 completed, gets 0
	}
	rep := evaluateKeyed([]counter.Guarantee{counter.Exact(counter.Linearizable)},
		[]string{"central"}, vals, 0, FaultContext{})
	if rep.Shards[0].OrderViolations != 1 {
		t.Fatalf("shard order violations = %d, want 1", rep.Shards[0].OrderViolations)
	}
	if rep.KeyOrderViolations != 1 {
		t.Fatalf("key order violations = %d, want 1", rep.KeyOrderViolations)
	}
	if rep.Summary.Violations == 0 {
		t.Fatal("summary missed the order violation")
	}
}

// TestEvaluateKeyedMissingCountsOnce: missing values land in the summary
// exactly once and surface in First.
func TestEvaluateKeyedMissingCountsOnce(t *testing.T) {
	vals := []keyedOp{kv(1, 0, 0, 0, 0, 0, 2)}
	rep := evaluateKeyed([]counter.Guarantee{counter.Exact(counter.Linearizable)},
		[]string{"central"}, vals, 2, FaultContext{})
	if rep.Summary.Violations != 2 || rep.Summary.Missing != 2 {
		t.Fatalf("summary violations/missing = %d/%d, want 2/2", rep.Summary.Violations, rep.Summary.Missing)
	}
	if rep.Summary.First == "" {
		t.Fatal("missing values not surfaced in First")
	}
}

// evaluateKeyedByCopy is the oracle for EvaluateKeyed's grouping: the
// straightforward partition that copies every shard's and every (key,
// epoch) segment's operations out of the history, in completion order, and
// checks each copy on its own. It fills the fields the grouping decides.
func evaluateKeyedByCopy(guarantees []counter.Guarantee, ops []keyedOp) KeyedReport {
	rep := KeyedReport{}
	perShard := make([][]TimedValue, len(guarantees))
	for _, op := range ops {
		perShard[op.Shard] = append(perShard[op.Shard], op.TimedValue)
	}
	for s, g := range guarantees {
		rep.Shards = append(rep.Shards, ShardReport{Shard: s, Report: Evaluate(g, perShard[s], 0)})
	}
	type segKey struct{ key, epoch int32 }
	type segment struct {
		shard int32
		vals  []TimedValue
	}
	segs := map[segKey]*segment{}
	keys := map[int32]int{}
	for _, op := range ops {
		sk := segKey{op.Key, op.Epoch}
		if segs[sk] == nil {
			segs[sk] = &segment{shard: op.Shard}
			keys[op.Key]++
		}
		segs[sk].vals = append(segs[sk].vals, op.TimedValue)
	}
	rep.Segments, rep.Keys = len(segs), len(keys)
	for _, epochs := range keys {
		if epochs > 1 {
			rep.MigratedKeys++
		}
	}
	for _, seg := range segs {
		level := guarantees[seg.shard].Level
		if level == counter.SequentialOnly || level == counter.Approximate {
			continue
		}
		lin := Evaluate(counter.Exact(counter.Linearizable), seg.vals, 0)
		rep.KeyDuplicates += lin.Duplicates
		if level == counter.Linearizable {
			rep.KeyOrderViolations += lin.OrderViolations
		}
	}
	return rep
}

// TestEvaluateKeyedMatchesCopyOracle: grouping the one history by index
// reports what partitioning it into copies reports, shard by shard and
// segment by segment, on random histories with duplicates, inversions,
// migrations and every guarantee level.
func TestEvaluateKeyedMatchesCopyOracle(t *testing.T) {
	guarantees := []counter.Guarantee{
		counter.Exact(counter.Linearizable), counter.Exact(counter.Quiescent),
		counter.Exact(counter.SequentialOnly), counter.Approx(0.1), counter.Exact(counter.Linearizable),
	}
	var dups, inversions int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]keyedOp, rng.Intn(400))
		next := make([]int, len(guarantees)) // each shard's own value sequence
		for i := range ops {
			key := rng.Intn(12)
			epoch := 0
			if i > len(ops)/2 && key < 3 {
				epoch = 1 // the low keys migrate mid-run, to the last shard
			}
			shard := key % (len(guarantees) - 1)
			if epoch == 1 {
				shard = len(guarantees) - 1
			}
			value := next[shard]
			if rng.Intn(10) > 0 { // one in ten hands its value out again
				next[shard]++
			}
			start := int64(i/3*5 + rng.Intn(7))
			ops[i] = kv(i, shard, key, epoch, value, start, start+int64(rng.Intn(9)))
		}
		got := evaluateKeyed(guarantees, nil, ops, 0, FaultContext{})
		want := evaluateKeyedByCopy(guarantees, ops)
		if !reflect.DeepEqual(got.Shards, want.Shards) {
			t.Errorf("seed %d: shard reports differ:\n got %+v\nwant %+v", seed, got.Shards, want.Shards)
		}
		got.Shards, want.Shards, got.Summary = nil, nil, Report{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: segment accounting differs:\n got %+v\nwant %+v", seed, got, want)
		}
		dups += want.KeyDuplicates
		inversions += want.KeyOrderViolations
	}
	if dups == 0 || inversions == 0 {
		t.Fatalf("histories too clean to judge by: %d key duplicates, %d key order violations", dups, inversions)
	}
}
