package engine

import (
	"fmt"
	"math"
	"slices"

	"distcount/internal/loadstat"
)

// metrics accumulates the per-completion measurements and derives the
// result's aggregate fields. Both loops on every substrate report through
// it, so no cell can drift in what it reports; the only substrate-dependent
// inputs are the clock, the loads and the rate unit (Result.Wall).
type metrics struct {
	warmup             int
	completed          int
	opStarts, opDones  []int64 // activity intervals, for PeakInFlight
	lastDone           int64
	measureBegan       bool
	baseSent, baseRecv []int64 // load snapshot at the warmup boundary
	// Per measured completion: end-to-end latency and its two parts. They
	// live here, not on the Result, because only their digests are reported:
	// a retained Result must not pin 8 bytes per operation.
	latencies   []int64
	queueDelays []int64
	serviceLats []int64
	keyLatSum   []int64 // measured end-to-end latency sum per key; nil on unkeyed runs
	keyMeasured []int
}

// newMetrics sizes the accumulation slices from the expected completion
// count (0 = grow by append), so a hinted run's metric collection performs
// no mid-run reallocation.
func newMetrics(res *Result, warmup, hint int) *metrics {
	// No warmup: measure from t=0 with a zero load baseline.
	m := &metrics{warmup: warmup, measureBegan: warmup == 0}
	if res.Keys > 0 {
		m.keyLatSum = make([]int64, res.Keys)
		m.keyMeasured = make([]int, res.Keys)
	}
	if hint > 0 {
		m.opStarts = make([]int64, 0, hint)
		m.opDones = make([]int64, 0, hint)
		if meas := hint - warmup; meas > 0 {
			m.latencies = make([]int64, 0, meas)
			m.queueDelays = make([]int64, 0, meas)
			m.serviceLats = make([]int64, 0, meas)
		}
	}
	return m
}

// onDone records one completion: its activity interval always, and past
// the warmup boundary its end-to-end latency split into queueing delay
// (arrival to injection) and service latency (injection to completion),
// attributed to its key on keyed runs.
func (m *metrics) onDone(res *Result, s substrate, key int, arrival, start, done int64) {
	m.completed++
	m.opStarts = append(m.opStarts, start)
	m.opDones = append(m.opDones, done)
	if done > m.lastDone {
		m.lastDone = done
	}
	if m.completed <= m.warmup {
		return
	}
	if !m.measureBegan {
		// The op crossing the boundary is the first measured one.
		m.measureBegan = true
		res.MeasureStart = s.now()
		m.baseSent, m.baseRecv = s.loads()
	}
	m.latencies = append(m.latencies, done-arrival)
	m.queueDelays = append(m.queueDelays, start-arrival)
	m.serviceLats = append(m.serviceLats, done-start)
	if m.keyLatSum != nil {
		m.keyLatSum[key] += done - arrival
		m.keyMeasured[key]++
	}
}

// sample takes one bottleneck-series point.
func (m *metrics) sample(res *Result, s substrate, inFlight, queueDepth int) Sample {
	proc, load, sum := s.peak()
	return Sample{
		SimTime:        s.now(),
		Completed:      m.completed,
		Bottleneck:     proc,
		BottleneckLoad: load,
		MeanLoad:       float64(sum) / float64(res.N),
		InFlight:       inFlight,
		QueueDepth:     queueDepth,
	}
}

// scanPeak finds the bottleneck of a load snapshot in O(n) — the fallback
// for substrates without the simulator's O(1) incremental tracker; series
// points are taken at a thinned stride, so the scan stays off the per-op
// path.
func scanPeak(sent, recv []int64) (proc int, load, sum int64) {
	for p := 1; p < len(sent); p++ {
		l := sent[p] + recv[p]
		sum += l
		if l > load {
			load, proc = l, p
		}
	}
	return proc, load, sum
}

// finalize derives the aggregate report fields once the run has drained. It
// consumes the per-completion vectors (they are sorted in place), so it runs
// once, last.
func (m *metrics) finalize(res *Result, s substrate, thinAfter bool) error {
	res.Ops = m.completed
	res.Measured = len(m.latencies)
	if res.Measured == 0 && res.Wedged == 0 {
		// A wedged run may legitimately complete nothing (every operation
		// stalled on a destroyed event); its zero latency digests are part
		// of the measurement. Without faults an empty measure window is a
		// configuration error.
		return fmt.Errorf("engine: warmup %d consumed all %d operations", m.warmup, m.completed)
	}
	res.SimTime = m.lastDone
	res.Messages = s.messages()
	res.PeakInFlight = peakConcurrency(m.opStarts, m.opDones)
	if thinAfter {
		res.Series = thinSeries(res.Series, 64)
	}
	// Measure-window loads: final loads minus the snapshot at the warmup
	// boundary (no snapshot when there was no warmup).
	sent, recv := s.loads()
	if m.baseSent != nil {
		for p := range sent {
			sent[p] -= m.baseSent[p]
			recv[p] -= m.baseRecv[p]
		}
	}
	res.Loads = loadstat.Summarize(sent, recv)
	if res.Measured > 0 {
		res.MessagesPerOp = float64(res.Loads.TotalMessages) / float64(res.Measured)
	}
	res.Arrivals = res.Ops + res.Dropped
	if res.Arrivals > 0 {
		res.DropRate = float64(res.Dropped) / float64(res.Arrivals)
	}

	window := res.SimTime - res.MeasureStart
	if window < 1 {
		window = 1
	}
	res.Throughput = float64(res.Measured) / float64(window)
	if res.Wall {
		// Rates over nanosecond spans are reported in the wall mode's rate
		// unit, operations per second.
		res.Throughput *= 1e9
		for i := range res.Buckets {
			res.Buckets[i].OfferedRate *= 1e9
		}
		if res.Knee != nil {
			res.Knee.OfferedRate *= 1e9
		}
	}
	res.Latency = summarizeLatencies(m.latencies)
	res.QueueDelay = summarizeLatencies(m.queueDelays)
	res.ServiceLatency = summarizeLatencies(m.serviceLats)

	if m.keyLatSum != nil {
		res.PerKey = make([]KeyStat, len(m.keyLatSum))
		for k := range res.PerKey {
			res.PerKey[k].Key = k
			if m.keyMeasured[k] > 0 {
				res.PerKey[k].MeanLatency = float64(m.keyLatSum[k]) / float64(m.keyMeasured[k])
			}
		}
	}
	return nil
}

// summarizeLatencies computes the latency digest, sorting lats in place:
// every caller hands over a vector it is done with, and a copy per digest
// would put O(ops) transient bytes on every run's peak. The zero digest is
// returned for an empty vector.
func summarizeLatencies(lats []int64) LatencyStats {
	if len(lats) == 0 {
		return LatencyStats{}
	}
	slices.Sort(lats)
	var sum float64
	for _, l := range lats {
		sum += float64(l)
	}
	return LatencyStats{
		Mean: sum / float64(len(lats)),
		P50:  percentile(lats, 0.50),
		P90:  percentile(lats, 0.90),
		P99:  percentile(lats, 0.99),
		Min:  lats[0],
		Max:  lats[len(lats)-1],
	}
}

// percentile interpolates the q-quantile of a sorted vector: the "type 7"
// estimator (linear interpolation between the order statistics at the two
// ranks bracketing q·(len−1), the default of R and NumPy) — not the
// nearest-rank method, which never interpolates.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 1 {
		return float64(sorted[0])
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return float64(sorted[lo])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// peakConcurrency sweeps the operations' [start, done] activity intervals
// and returns the maximum overlap. An operation completing at the same
// tick another starts is not concurrent with it (the closed loop admits
// the successor from the completion); a zero-duration operation — one that
// completes within its own start event — occupies its start tick. Both
// slices are consumed: zero-duration completions are bumped and each slice is
// sorted in place, so the start/done pairing is gone afterwards.
func peakConcurrency(starts, dones []int64) int {
	for i := range dones {
		if dones[i] == starts[i] {
			dones[i]++
		}
	}
	slices.Sort(starts)
	slices.Sort(dones)
	peak, cur, j := 0, 0, 0
	for _, s := range starts {
		for j < len(dones) && dones[j] <= s {
			cur--
			j++
		}
		cur++
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// thinSeries keeps at most target points, evenly spaced, always retaining
// the final point.
func thinSeries(series []Sample, target int) []Sample {
	if len(series) <= target || target < 2 {
		return series
	}
	out := make([]Sample, 0, target)
	step := float64(len(series)-1) / float64(target-1)
	for i := 0; i < target; i++ {
		out = append(out, series[int(math.Round(float64(i)*step))])
	}
	return out
}
