package verify

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"distcount/internal/counter"
)

// Report quantifies the value correctness of one concurrent run against the
// guarantee the algorithm claims (counter.Guarantee). Unlike the
// boolean checks (Linearizable, QuiescentConsistent), which are views of it
// that name only the first problem, the report counts everything, so the workload engine can
// attach it to a result and a sweep can compare algorithms: tokenring's
// duplicate count under load is a measurement, not a test failure.
type Report struct {
	// Property is the claimed guarantee being verified:
	// "sequential", "quiescent", "linearizable", or "approximate(ε)".
	Property string `json:"property"`
	// Ops is the number of completed operations whose values were checked;
	// Missing counts completed operations that never received a value
	// (a protocol bug for every implementation in this repository).
	Ops     int `json:"ops"`
	Missing int `json:"missing,omitempty"`
	// Duplicates is the number of operations that received a value some
	// earlier-checked operation also received; Gaps the number of values in
	// [0, Ops) never handed out. Both are zero exactly when the values form
	// a bijection onto {0..Ops-1} (quiescent consistency).
	Duplicates int `json:"duplicates"`
	Gaps       int `json:"gaps"`
	// OrderViolations is the number of operations that received a value not
	// larger than some operation that completed before they started — the
	// real-time order condition of linearizability.
	OrderViolations int `json:"order_violations"`
	// Violations counts the failures of the claimed property: for
	// "linearizable" duplicates + gaps + order violations, for "quiescent"
	// duplicates + gaps, for "approximate(ε)" out-of-bound values, for
	// "sequential" nothing (no concurrent claim is made; duplicates and
	// gaps remain reported as measurements). Missing values always count
	// as violations.
	Violations int `json:"violations"`
	// Epsilon is the claimed relative error bound when the property is
	// approximate; OutOfBound counts operations whose value fell outside
	// (1-ε)·lo .. (1+ε)·hi, where [lo, hi] brackets the true prefix count
	// over the operation's lifetime (lo = increments certainly applied
	// before it started, hi = increments possibly applied before it
	// ended); MaxRelError is the largest observed relative excursion
	// beyond that bracket (0 when every value was consistent with some
	// exact execution). All three are zero — and absent from the JSON —
	// for exact guarantees.
	Epsilon     float64 `json:"epsilon,omitempty"`
	OutOfBound  int     `json:"out_of_bound,omitempty"`
	MaxRelError float64 `json:"max_rel_error,omitempty"`
	// Excused counts property failures attributed to injected faults: when
	// the run's fault plan actually fired, anomalies a fault can legitimately
	// cause — duplicates, gaps, order violations — are measured here instead
	// of in Violations. Missing values are never excused: an operation that
	// completes without a value is a protocol bug even on a faulty network
	// (fault-destroyed events wedge operations, they do not complete them).
	Excused int `json:"excused,omitempty"`
	// Wedged is the number of operations the run's injected faults stalled
	// forever (carried in from the engine, for rendering alongside the value
	// checks).
	Wedged int `json:"wedged,omitempty"`
	// FaultsFired reports whether any injected fault event actually fired.
	FaultsFired bool `json:"faults_fired,omitempty"`
	// First describes the first detected violation, empty when none.
	First string `json:"first_violation,omitempty"`
}

// FaultContext tells Evaluate what the fault-injection layer did during the
// run, so it can separate anomalies the plan explains from genuine
// violations. The zero value (no faults) reproduces the strict semantics.
type FaultContext struct {
	// Fired is true when at least one fault event fired (not merely when a
	// plan was installed: a plan that never triggers excuses nothing).
	Fired bool
	// Wedged is the number of operations stalled forever by faults.
	Wedged int
}

// Evaluate checks the values of a concurrent run against the claimed
// guarantee and returns the quantitative report. missing is the
// number of completed operations whose value could not be read back.
func Evaluate(g counter.Guarantee, vals []TimedValue, missing int) Report {
	return EvaluateWithFaults(g, vals, missing, FaultContext{})
}

// EvaluateWithFaults is Evaluate for a run under fault injection: when the
// plan actually fired, duplicates, gaps, and order violations are excused —
// counted and reported, not asserted away and not violations — because a
// faulty network legitimately causes them (a lost reply leaves its value
// unhanded, a duplicated request mints an extra one). What is NOT excused
// is a completed operation without a value (Missing): fault-destroyed
// events wedge their operations instead of completing them, so Missing
// remains a hard violation under any fault plan. A linearizable scheme
// therefore satisfies "stay correct or visibly stall" exactly when its
// report shows Violations == 0.
func EvaluateWithFaults(g counter.Guarantee, vals []TimedValue, missing int, fc FaultContext) Report {
	return evaluate(g, history{vals: vals}, missing, fc)
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

func evaluate(g counter.Guarantee, h history, missing int, fc FaultContext) Report {
	level := g.Level
	exactClaim := level == counter.Quiescent || level == counter.Linearizable
	n := h.len()
	rep := Report{Property: g.String(), Ops: n, Missing: missing, Wedged: fc.Wedged, FaultsFired: fc.Fired}

	// Exactly-once accounting: duplicates and gaps relative to {0..Ops-1}.
	// For approximate guarantees these stay measurements (repeated values
	// are the point of not paying for exactness), never violations.
	seen := newValueSet(n)
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
		evaluateApproximate(&rep, g.Epsilon, h)
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

// valueSet records which values have been handed out. A correct run of n
// operations hands out exactly 0..n-1, so values in [0, n) live in a dense
// table and only the strays a faulty or broken run produces go to a map.
// Entries carry the generation that added them: next forgets the whole set
// in O(1), which lets one table serve every (key, epoch) segment of a shard.
type valueSet struct {
	gen   int32
	dense []int32 // per value in [0, len): the last generation that added it
	rest  map[int]int32
}

func newValueSet(n int) *valueSet { return &valueSet{gen: 1, dense: make([]int32, n)} }

func (s *valueSet) next() { s.gen++ }

// add records v and reports whether the set already had it.
func (s *valueSet) add(v int) (dup bool) {
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

func (s *valueSet) has(v int) bool {
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

// approxTolerance absorbs float rounding in the ε bound comparison so a
// value sitting exactly on (1±ε) of the bracket edge passes.
const approxTolerance = 1e-9

// evaluateApproximate checks every value of an ε-approximate run against
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
func evaluateApproximate(rep *Report, eps float64, h history) {
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
