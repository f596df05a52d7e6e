package verify

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"distcount/internal/counter"
)

// The oracle: the batch evaluation the Stream replaced, kept as the judge of
// FuzzStreamMatchesBatch. It sorts the whole history by start and by end and
// tallies values in a table sized by the run, so it needs the run in memory;
// the Stream must report exactly what it reports.

// batchEvaluateWithFaults is EvaluateWithFaults as a batch over vals.
func batchEvaluateWithFaults(g counter.Guarantee, vals []TimedValue, missing int, fc FaultContext) Report {
	return batchEvaluate(g, history{vals: vals}, missing, fc)
}

// history is a run's completed operations, or a subsequence of them, in
// completion order: vals[idx[0]], vals[idx[1]], … — all of vals when idx is
// nil. The shard and segment histories of a keyed run are index lists into
// the one recorded history, not copies of it.
type history struct {
	vals []TimedValue
	idx  []int32
}

func (h history) len() int {
	if h.idx != nil {
		return len(h.idx)
	}
	return len(h.vals)
}

func (h history) at(i int) *TimedValue {
	if h.idx != nil {
		return &h.vals[h.idx[i]]
	}
	return &h.vals[i]
}

// indices returns a fresh copy of the history's index list.
func (h history) indices() []int32 {
	if h.idx != nil {
		return slices.Clone(h.idx)
	}
	all := make([]int32, len(h.vals))
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

func batchEvaluate(g counter.Guarantee, h history, missing int, fc FaultContext) Report {
	level := g.Level
	exactClaim := level == counter.Quiescent || level == counter.Linearizable
	n := h.len()
	rep := Report{Property: g.String(), Ops: n, Missing: missing, Wedged: fc.Wedged, FaultsFired: fc.Fired}

	// Exactly-once accounting: duplicates and gaps relative to {0..Ops-1}.
	// For approximate guarantees these stay measurements (repeated values
	// are the point of not paying for exactness), never violations.
	seen := newGenSet(n)
	for i := 0; i < n; i++ {
		v := h.at(i)
		if seen.add(v.Value) {
			rep.Duplicates++
			if rep.First == "" && exactClaim {
				rep.First = fmt.Sprintf("value %d handed out more than once", v.Value)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen.has(v) {
			rep.Gaps++
			if rep.First == "" && exactClaim {
				rep.First = fmt.Sprintf("value %d never handed out", v)
			}
		}
	}

	realTimeOrder(h, func(b TimedValue, maxDone int) {
		rep.OrderViolations++
		if rep.First == "" && level == counter.Linearizable {
			rep.First = fmt.Sprintf("op %d got value %d although an operation with value >= %d completed before it started",
				b.Op, b.Value, maxDone)
		}
	})

	switch level {
	case counter.Linearizable:
		rep.Violations = rep.Duplicates + rep.Gaps + rep.OrderViolations
	case counter.Quiescent:
		rep.Violations = rep.Duplicates + rep.Gaps
	case counter.Approximate:
		rep.Epsilon = g.Epsilon
		batchApproximate(&rep, g.Epsilon, h)
		rep.Violations = rep.OutOfBound
	}
	if fc.Fired {
		rep.Excused = rep.Violations
		rep.Violations = 0
		rep.First = ""
	}
	rep.Violations += rep.Missing
	if rep.Missing > 0 && rep.First == "" {
		rep.First = fmt.Sprintf("%d operations completed without delivering a value", rep.Missing)
	}
	return rep
}

// genSet records which values have been handed out. A correct run of n
// operations hands out exactly 0..n-1, so values in [0, n) live in a dense
// table and only the strays a faulty or broken run produces go to a map.
// Entries carry the generation that added them: next forgets the whole set
// in O(1), which lets one table serve every (key, epoch) segment of a shard.
type genSet struct {
	gen   int32
	dense []int32 // per value in [0, len): the last generation that added it
	rest  map[int]int32
}

func newGenSet(n int) *genSet { return &genSet{gen: 1, dense: make([]int32, n)} }

func (s *genSet) next() { s.gen++ }

// add records v and reports whether the set already had it.
func (s *genSet) add(v int) (dup bool) {
	if v >= 0 && v < len(s.dense) {
		dup = s.dense[v] == s.gen
		s.dense[v] = s.gen
		return dup
	}
	dup = s.rest[v] == s.gen
	if s.rest == nil {
		s.rest = map[int]int32{}
	}
	s.rest[v] = s.gen
	return dup
}

func (s *genSet) has(v int) bool {
	if v >= 0 && v < len(s.dense) {
		return s.dense[v] == s.gen
	}
	return s.rest[v] == s.gen
}

// realTimeOrder is the real-time order sweep of linearizability: it scans the
// operations by start time, tracking the largest value among operations
// completed strictly before each start, and reports every operation b whose
// value does not exceed it — some operation with a value >= b's (maxDone)
// completed before b started. The sorts are stable, so among operations
// starting together the first reported is the first in the history.
func realTimeOrder(h history, inverted func(b TimedValue, maxDone int)) {
	// Both orders are permutations of the history kept as indices: 8 bytes
	// per operation next to a history of 32, where two sorted copies would
	// triple the run's peak.
	vals := h.vals
	byEnd := h.indices()
	byStart := slices.Clone(byEnd)
	slices.SortStableFunc(byEnd, func(a, b int32) int { return cmp.Compare(vals[a].End, vals[b].End) })
	slices.SortStableFunc(byStart, func(a, b int32) int { return cmp.Compare(vals[a].Start, vals[b].Start) })
	maxDone, ei := -1, 0
	for _, bi := range byStart {
		b := &vals[bi]
		for ei < len(byEnd) && vals[byEnd[ei]].End < b.Start {
			maxDone = max(maxDone, vals[byEnd[ei]].Value)
			ei++
		}
		if maxDone >= b.Value {
			inverted(*b, maxDone)
		}
	}
}

// batchApproximate checks every value of an ε-approximate run against
// the true prefix count. Exactness is unobservable under concurrency, but
// the true count at the moment operation i read its value is bracketed:
// at least lo_i = |{j : End_j < Start_i}| increments had certainly been
// applied (those operations finished before i began), and at most
// hi_i = |{j ≠ i : Start_j ≤ End_i}| could have been (no other increment
// had started yet). A value is in bound iff
// (1-ε)·lo_i ≤ v_i ≤ (1+ε)·hi_i; anything outside is inconsistent with
// EVERY exact execution by more than the claimed ε and counts as a
// violation. MaxRelError records the worst relative excursion beyond the
// [lo, hi] bracket itself (ε plays no part in the measurement, so the
// report shows the margin to the claim).
func batchApproximate(rep *Report, eps float64, h history) {
	starts := make([]int64, h.len())
	ends := make([]int64, h.len())
	for i := range starts {
		starts[i] = h.at(i).Start
		ends[i] = h.at(i).End
	}
	slices.Sort(starts)
	slices.Sort(ends)

	for i := range starts {
		v := h.at(i)
		// Count of operations that ended strictly before this one started.
		lo := sort.Search(len(ends), func(i int) bool { return ends[i] >= v.Start })
		// Count of operations started by the time this one ended, minus
		// the operation itself (its own start precedes its own end).
		hi := sort.Search(len(starts), func(i int) bool { return starts[i] > v.End }) - 1

		fv := float64(v.Value)
		var relErr float64
		switch {
		case fv < float64(lo):
			relErr = (float64(lo) - fv) / math.Max(float64(lo), 1)
		case fv > float64(hi):
			relErr = (fv - float64(hi)) / math.Max(float64(hi), 1)
		}
		if relErr > rep.MaxRelError {
			rep.MaxRelError = relErr
		}
		if fv < (1-eps)*float64(lo)-approxTolerance || fv > (1+eps)*float64(hi)+approxTolerance {
			rep.OutOfBound++
			if rep.First == "" {
				rep.First = fmt.Sprintf("op %d got value %d, outside ±%g of the true count bracket [%d, %d]",
					v.Op, v.Value, eps, lo, hi)
			}
		}
	}
}

// batchEvaluateKeyed checks a keyed run: each shard's history against its own
// claimed guarantee (guarantees and algos are indexed by shard), plus
// the per-(key, epoch) segment checks. vals is the run's history in
// completion order and at[i] where vals[i] executed; missing is the number
// of completed operations whose value could not be read back (counted in
// the summary).
func batchEvaluateKeyed(guarantees []counter.Guarantee, algos []string, vals []TimedValue, at []Placement, missing int, fc FaultContext) KeyedReport {
	rep := KeyedReport{}

	// The shard histories, then the segments, are one index list over vals
	// grouped two ways — 8 transient bytes per operation, where a copy per
	// shard and another per segment would triple the history.
	order := make([]int32, len(vals))
	shards := groupStable(order, len(guarantees), func(i int) int { return int(at[i].Shard) })
	allSame := true
	for s, g := range guarantees {
		sr := ShardReport{Shard: s, Report: batchEvaluate(g, history{vals, order[shards[s]:shards[s+1]]}, 0, fc)}
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
	seen := make([]*genSet, len(guarantees))
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
			seen[shard] = newGenSet(shards[shard+1] - shards[shard])
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
