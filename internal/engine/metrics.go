package engine

import (
	"fmt"
	"math"

	"distcount/internal/countersvc"
	"distcount/internal/loadstat"
)

// metrics accumulates the per-completion measurements and derives the
// result's aggregate fields. Both loops on either backend report through
// it, so no cell can drift in what it reports; the only backend-dependent
// inputs are the clock, the loads and the rate unit (Result.Wall).
//
// Only digests and a peak are reported, so neither a retained Result nor the
// run that produces it holds 8 bytes per operation: each latency kind
// streams into an exact digest and the activity intervals into an online
// sweep (stream.go), and the state is sized by the values seen and the
// operations in flight.
type metrics struct {
	warmup             int
	completed          int
	inFlight           inFlightSweep // activity intervals, for PeakInFlight
	lastDone           int64
	measureBegan       bool
	baseSent, baseRecv []int64 // load snapshot at the warmup boundary
	// Per measured completion: end-to-end latency and its two parts.
	latency, queueDelay, serviceLat digest
	keyLatSum                       []int64 // measured end-to-end latency sum per key; nil on unkeyed runs
	keyMeasured                     []int
	// sent and recv hold the loads of the latest series sample; the next
	// sample reuses them, so sampling allocates nothing.
	sent, recv []int64
}

func newMetrics(res *Result, warmup int) *metrics {
	// No warmup: measure from t=0 with a zero load baseline.
	m := &metrics{warmup: warmup, measureBegan: warmup == 0}
	// One chunk up front: growing to it by append would cost any run of a
	// thousand operations twenty allocations.
	m.inFlight.starts = make([]int64, 0, sweepChunk)
	m.inFlight.dones = make([]int64, 0, sweepChunk)
	if res.Keys > 0 {
		m.keyLatSum = make([]int64, res.Keys)
		m.keyMeasured = make([]int, res.Keys)
	}
	return m
}

// onDone records one completion: its activity interval always, and past
// the warmup boundary its end-to-end latency split into queueing delay
// (arrival to injection) and service latency (injection to completion),
// attributed to its key on keyed runs.
func (m *metrics) onDone(res *Result, s *countersvc.Service, key int, arrival, start, done int64) {
	m.completed++
	m.inFlight.add(start, done)
	if done > m.lastDone {
		m.lastDone = done
	}
	if m.completed <= m.warmup {
		return
	}
	if !m.measureBegan {
		// The op crossing the boundary is the first measured one.
		m.measureBegan = true
		res.MeasureStart = s.Now()
		m.baseSent, m.baseRecv = s.Loads(nil, nil)
	}
	m.latency.add(done - arrival)
	m.queueDelay.add(start - arrival)
	m.serviceLat.add(done - start)
	if m.keyLatSum != nil {
		m.keyLatSum[key] += done - arrival
		m.keyMeasured[key]++
	}
}

// sample takes one bottleneck-series point.
func (m *metrics) sample(res *Result, s *countersvc.Service, inFlight, queueDepth int) Sample {
	m.sent, m.recv = s.Loads(m.sent, m.recv)
	proc, load, sum := scanPeak(m.sent, m.recv)
	return Sample{
		SimTime:        s.Now(),
		Completed:      m.completed,
		Bottleneck:     proc,
		BottleneckLoad: load,
		MeanLoad:       float64(sum) / float64(res.N),
		InFlight:       inFlight,
		QueueDepth:     queueDepth,
	}
}

// scanPeak finds the bottleneck of a load snapshot in O(n), by
// loadstat.Summarize's rule: the smallest processor id at the maximum load,
// processor 1 when every load is zero. Series points are taken at a thinned
// stride, so the scan stays off the per-op path.
func scanPeak(sent, recv []int64) (proc int, load, sum int64) {
	proc = 1
	for p := 1; p < len(sent); p++ {
		l := sent[p] + recv[p]
		sum += l
		if l > load {
			load, proc = l, p
		}
	}
	return proc, load, sum
}

// finalize derives the aggregate report fields once the run has drained.
func (m *metrics) finalize(res *Result, s *countersvc.Service, thinAfter bool) error {
	res.Ops = m.completed
	res.Measured = m.latency.n
	if res.Measured == 0 && res.Wedged == 0 {
		// A wedged run may legitimately complete nothing (every operation
		// stalled on a destroyed event); its zero latency digests are part
		// of the measurement. Without faults an empty measure window is a
		// configuration error.
		return fmt.Errorf("engine: warmup %d consumed all %d operations", m.warmup, m.completed)
	}
	res.SimTime = m.lastDone
	res.Messages = s.MessagesTotal()
	res.PeakInFlight = m.inFlight.finish()
	if thinAfter {
		res.Series = thinSeries(res.Series, 64)
	}
	// Measure-window loads: final loads minus the snapshot at the warmup
	// boundary (no snapshot when there was no warmup).
	sent, recv := s.Loads(nil, nil)
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
	res.Latency = m.latency.stats()
	res.QueueDelay = m.queueDelay.stats()
	res.ServiceLatency = m.serviceLat.stats()

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
