package verify

import (
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
// number of completed operations whose value could not be read back. vals
// is the history in completion order; it is the Stream's report after
// observing all of it.
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
	s := NewStream(g)
	s.observeAll(vals, nil)
	return s.Report(missing, fc)
}
