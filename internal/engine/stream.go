package engine

import (
	"math"
	"math/bits"
	"slices"
)

// The two exact streaming structures behind the metrics: a run reports six
// digest numbers per latency kind and one PeakInFlight, so it keeps state
// sized by the values it saw and the operations still in flight — not one
// vector entry per completed operation.

// digestDense bounds the digest's counting table. Simulated latencies are
// small tick counts and rt's are mostly below 65 µs in nanoseconds, so on a
// long run nearly every sample lands in the table.
const digestDense = 1 << 16

// digestFirst is the table's first size: 4 KB covers a run whose latencies
// stay below a thousand ticks in one allocation.
const digestFirst = 1 << 10

// digest is an exact latency digest: its statistics are those of sorting
// every sample, bit for bit, without keeping the samples. Values the table
// covers are counted; the others stay raw. The table grows, up to
// digestDense, only while it costs no more than the samples it has seen
// would cost raw, so a digest holds O(min(samples, digestDense)) bytes plus
// the strays beyond the bound: a 300-op run with microsecond-wide latencies
// does not pay for a 65 536-entry table, and a 500 000-op run does not pay
// per sample.
type digest struct {
	counts []uint32 // counts[v] samples equal v (of those that arrived once the table covered v)
	span   int      // counts[:span] holds every counted sample: rank and reset stop there
	over   []int64  // the other samples, arranged for rank by stats
	n      int
	sum    int64
}

func (d *digest) add(v int64) {
	d.n++
	d.sum += v
	if uint64(v) >= uint64(len(d.counts)) && !d.cover(v) {
		if d.over == nil {
			// Strays are few or, on a wide distribution, most of the run:
			// skip the first doublings.
			d.over = make([]int64, 0, digestFirst/2)
		}
		d.over = append(d.over, v)
		return
	}
	d.span = max(d.span, int(v)+1)
	d.counts[v]++
}

// cover grows the table to count v, if v is below the dense bound and the
// grown table (4 bytes a value) is no larger than the samples so far kept
// raw (8 bytes each).
func (d *digest) cover(v int64) bool {
	if uint64(v) >= digestDense {
		return false
	}
	size := digestFirst
	for size <= int(v) {
		size *= 2
	}
	if size > digestFirst && size > 2*d.n {
		return false
	}
	grown := make([]uint32, size)
	copy(grown, d.counts)
	d.counts = grown
	return true
}

// reset empties the digest, keeping its table for the next population.
func (d *digest) reset() {
	clear(d.counts[:d.span])
	d.span = 0
	d.over = d.over[:0]
	d.n, d.sum = 0, 0
}

// stats returns the digest of the samples added so far (the zero digest for
// none). The mean is exact while the sum stays below 2^53.
func (d *digest) stats() LatencyStats {
	if d.n == 0 {
		return LatencyStats{}
	}
	// The ranks read below, in increasing order: the min, the two bracketing
	// each quantile, the max.
	ranks := [8]int{7: d.n - 1}
	for i, q := range [3]float64{0.50, 0.90, 0.99} {
		ranks[2*i+1], ranks[2*i+2], _ = bracket(d.n, q)
	}
	d.order(ranks[:])
	return LatencyStats{
		Mean: float64(d.sum) / float64(d.n),
		P50:  d.quantile(0.50),
		P90:  d.quantile(0.90),
		P99:  d.quantile(0.99),
		Min:  d.rank(0),
		Max:  d.rank(d.n - 1),
	}
}

// order arranges the raw samples so that rank reads the given ranks
// (ascending) right. The strays below the span interleave with counted
// values and the walk merges them, so they go first, sorted; there are few,
// since only a sample that arrived before the table grew to cover it is
// one. The strays at or above the span follow every counted value, so rank
// k among all samples is the one at over[k-counted]: selection puts just
// the ranks asked for in place, not the whole tail.
func (d *digest) order(ranks []int) {
	below := 0
	for i, v := range d.over {
		if v < int64(d.span) {
			d.over[i], d.over[below] = d.over[below], v
			below++
		}
	}
	slices.Sort(d.over[:below])
	counted := d.n - len(d.over)
	from := below // over[from:] is not in place yet
	for _, k := range ranks {
		if i := k - counted; i >= from {
			nth(d.over[from:], i-from)
			from = i + 1
		}
	}
}

// nth rearranges a so that a[k] holds what sorting would put there, with no
// larger value before it and no smaller one after: quickselect (Hoare
// partitions around a median of three), falling back to sorting what is
// left once the partitions have stopped halving it.
func nth(a []int64, k int) {
	for budget := 2 * bits.Len(uint(len(a))); len(a) > 1; budget-- {
		if budget == 0 {
			slices.Sort(a)
			return
		}
		x, y, z := a[0], a[len(a)/2], a[len(a)-1]
		pivot := max(min(x, y), min(max(x, y), z))
		i, j := -1, len(a)
		for {
			for i++; a[i] < pivot; i++ {
			}
			for j--; a[j] > pivot; j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		// a[:j+1] holds no value above the pivot, a[j+1:] none below it.
		if k <= j {
			a = a[:j+1]
		} else {
			a, k = a[j+1:], k-j-1
		}
	}
}

// bracket returns the two ranks whose order statistics the q-quantile of n
// samples interpolates between, and the weight of the upper one.
func bracket(n int, q float64) (lo, hi int, frac float64) {
	pos := q * float64(n-1)
	lo, hi = int(math.Floor(pos)), int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// quantile interpolates the q-quantile: the "type 7" estimator (linear
// interpolation between the order statistics at the two ranks bracketing
// q·(n−1), the default of R and NumPy) — not the nearest-rank method, which
// never interpolates. order must have placed both ranks.
func (d *digest) quantile(q float64) float64 {
	lo, hi, frac := bracket(d.n, q)
	if lo == hi {
		return float64(d.rank(lo))
	}
	return float64(d.rank(lo))*(1-frac) + float64(d.rank(hi))*frac
}

// rank returns the k-th smallest sample (0-based), merging the table with
// the raw samples. order must have placed k. The walk ends at the largest
// counted value; the raw samples it has not passed are the ranks above.
func (d *digest) rank(k int) int64 {
	j := 0
	for v, c := range d.counts[:d.span] {
		for ; j < len(d.over) && d.over[j] < int64(v); j++ {
			if k == 0 {
				return d.over[j]
			}
			k--
		}
		if k < int(c) {
			return int64(v)
		}
		k -= int(c)
	}
	return d.over[j+k]
}

// sweepChunk is how many completions buffer between two in-flight sweeps:
// large enough to amortize a sweep's sorts, small enough to stay in cache.
const sweepChunk = 1024

// frontierEvery is how many completions pass between two frontiers the
// driver reports to the sweep (each is a scan of the initiators). A due
// sweep's newest frontier is then at most that many records old, so what it
// leaves buffered stays well inside the chunk it was allocated with.
const frontierEvery = sweepChunk / 8

// inFlightSweep computes the peak number of operations simultaneously in
// flight from their [start, done] activity intervals, reported in any
// order, while the run is still going. Completed intervals buffer until
// advance sweeps the ones below a frontier no later interval can reach, so
// the buffer holds a chunk plus whatever overlaps the oldest operation
// still in flight, not the run.
//
// The tie rule: an operation completing at the tick another starts is not
// concurrent with it (the closed loop admits the successor from the
// completion); a zero-duration operation — one that completes within its
// own start event — occupies its start tick.
type inFlightSweep struct {
	// Buffered intervals, the start/done pairing dropped; zero-duration
	// dones are bumped one tick, so every done exceeds its start.
	starts, dones []int64
	cur, peak     int
	next          int // buffered count at which the next sweep is due
}

func (w *inFlightSweep) add(start, done int64) {
	if done == start {
		done++
	}
	w.starts = append(w.starts, start)
	w.dones = append(w.dones, done)
}

// due reports whether enough intervals have buffered to sweep.
func (w *inFlightSweep) due() bool { return len(w.dones) >= max(w.next, sweepChunk) }

// advance sweeps the buffered starts below frontier in time order. The
// caller guarantees every interval not yet added starts at or after
// frontier; its done is later still, so every done at or before a swept
// start is already buffered and the running overlap is the one a sort of
// the whole run would find.
func (w *inFlightSweep) advance(frontier int64) {
	slices.Sort(w.starts)
	slices.Sort(w.dones)
	i, j := 0, 0
	for ; i < len(w.starts) && w.starts[i] < frontier; i++ {
		for j < len(w.dones) && w.dones[j] <= w.starts[i] {
			w.cur--
			j++
		}
		w.cur++
		if w.cur > w.peak {
			w.peak = w.cur
		}
	}
	w.starts = w.starts[:copy(w.starts, w.starts[i:])]
	w.dones = w.dones[:copy(w.dones, w.dones[j:])]
	// A frontier held back (an operation wedged by a fault never completes)
	// leaves the buffer growing; doubling keeps the re-sorts amortized.
	w.next = 2 * len(w.dones)
}

// finish sweeps everything left, once the run has drained, and returns the
// peak.
func (w *inFlightSweep) finish() int {
	w.advance(math.MaxInt64)
	return w.peak
}
