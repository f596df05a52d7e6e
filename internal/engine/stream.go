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

// wallExact bounds the wall-clock samples a digest keeps exact, in
// nanoseconds; addWall rounds larger ones to wallBits significant bits.
const (
	wallExact = 1 << 16
	wallBits  = 10
)

// digestFirst is the table's first size: 4 KB covers a run whose latencies
// stay below a thousand ticks in one allocation.
const digestFirst = 1 << 10

// digest is an exact latency digest: its statistics are those of sorting
// every sample, bit for bit, without keeping the samples. Values the table
// covers are counted; the others are strays. The table grows, up to
// digestDense, only while it costs no more than the samples it has seen
// would cost raw, so a digest holds O(min(samples, digestDense)) bytes plus
// the strays: a 300-op run with microsecond-wide latencies does not pay for
// a 65 536-entry table, and a 500 000-op run does not pay per sample below
// the bound. Strays are kept raw until the raw buffer fills. Then those the
// table has grown to cover since are counted, and the rest compacted into
// runs, one exact (value, count) pair per distinct value, when that at least
// halves what they cost raw; otherwise they stay raw, with the next try once
// there are twice as many. So strays cost at most 8 bytes a sample, as raw
// ones do, and strays that repeat (rt's rounded wall-clock samples,
// metrics.add) cost 16 bytes a distinct value however many samples share it.
type digest struct {
	counts []uint32 // counts[v] samples equal v, but for strays not yet folded in (compact)
	span   int      // counts[:span] holds every counted sample: rank and reset stop there
	over   []int64  // the raw strays, arranged for rank by stats
	runs   []digestRun
	retry  int // len(over) before which a full buffer grows without a compaction
	n      int
	sum    int64
}

// digestRun is c compacted strays equal to v; a digest's runs ascend by v.
type digestRun struct {
	v int64
	c int
}

func (d *digest) add(v int64) {
	d.n++
	d.sum += v
	if uint64(v) >= uint64(len(d.counts)) && !d.cover(v) {
		switch {
		case d.over == nil:
			// Strays are few or, on a wide distribution, most of the run:
			// skip the first doublings.
			d.over = make([]int64, 0, digestFirst/2)
		case len(d.over) == cap(d.over) && len(d.over) >= d.retry:
			d.compact()
		}
		d.over = append(d.over, v)
		return
	}
	d.span = max(d.span, int(v)+1)
	d.counts[v]++
}

// addWall adds a wall-clock sample, in nanoseconds: to the mean exactly,
// and to the order statistics rounded by roundWall. A sample of wallExact ns
// or more is a stray; rounded, an rt run's strays take at most 512 distinct
// values per doubling of the latency, so compaction keeps them in constant
// memory however long the run.
func (d *digest) addWall(v int64) {
	r := roundWall(v)
	d.add(r)
	d.sum += v - r
}

// roundWall rounds v, when it is wallExact or more, to the nearest value
// with wallBits significant bits: a relative error below 2^-wallBits. Smaller
// values are returned as they are.
func roundWall(v int64) int64 {
	if v < wallExact {
		return v
	}
	shift := bits.Len64(uint64(v)) - wallBits
	return (v + 1<<(shift-1)) >> shift << shift
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

// compact makes room in the full raw buffer: it counts the strays the table
// now covers, and merges the others into the runs, emptying the buffer, when
// the runs that adds (16 bytes each) cost at most half the raw samples (8
// bytes each); otherwise the strays stay raw and the next try waits until
// there are twice as many. A tail of distinct values (a simulated closed
// loop falling behind its arrivals) is told by a sample, so it pays no sort.
func (d *digest) compact() {
	// Strays that arrived before the table grew to cover them are counted
	// now; when that frees half the buffer, it is enough.
	kept := d.over[:0]
	for _, v := range d.over {
		if uint64(v) < uint64(len(d.counts)) {
			d.span = max(d.span, int(v)+1)
			d.counts[v]++
		} else {
			kept = append(kept, v)
		}
	}
	d.over = kept
	if 2*len(d.over) <= cap(d.over) {
		return
	}
	if !d.repeats() {
		d.retry = 2 * len(d.over)
		return
	}
	slices.Sort(d.over)
	added := 0
	for i, j := 0, 0; j < len(d.over); j++ {
		v := d.over[j]
		if j > 0 && v == d.over[j-1] {
			continue
		}
		for i < len(d.runs) && d.runs[i].v < v {
			i++
		}
		if i == len(d.runs) || d.runs[i].v != v {
			added++
		}
	}
	if 4*added > len(d.over) {
		d.retry = 2 * len(d.over)
		return
	}
	// Merge from the back, so that every run moves at most once and the
	// runs already in place stay there.
	i, k := len(d.runs)-1, len(d.runs)+added-1
	d.runs = slices.Grow(d.runs, added)[:k+1]
	for j := len(d.over) - 1; j >= 0; k-- {
		v, c := d.over[j], 0
		for ; j >= 0 && d.over[j] == v; j-- {
			c++
		}
		for ; i >= 0 && d.runs[i].v > v; i, k = i-1, k-1 {
			d.runs[k] = d.runs[i]
		}
		if i >= 0 && d.runs[i].v == v {
			c += d.runs[i].c
			i--
		}
		d.runs[k] = digestRun{v, c}
	}
	d.over = d.over[:0]
}

// repeats reports whether a sample of the raw strays holds a value twice:
// the newest 256 and 256 evenly spaced over the rest. Strays that compaction
// would at least halve repeat so much that it nearly always does — the
// newest ones when latencies trend with the run, the spread ones when they
// do not — and if it does not, they only stay raw.
func (d *digest) repeats() bool {
	const half = 256
	var sample [2 * half]int64
	rest := len(d.over) - half
	if rest < half {
		return true
	}
	copy(sample[:half], d.over[rest:])
	for i := range half {
		sample[half+i] = d.over[i*rest/half]
	}
	slices.Sort(sample[:])
	for i := 1; i < len(sample); i++ {
		if sample[i] == sample[i-1] {
			return true
		}
	}
	return false
}

// reset empties the digest, keeping its table and buffers for the next
// population.
func (d *digest) reset() {
	clear(d.counts[:d.span])
	d.span = 0
	d.over = d.over[:0]
	d.runs = d.runs[:0]
	d.retry = 0
	d.n, d.sum = 0, 0
}

// stats returns the digest of the samples added so far (the zero digest for
// none). The mean is exact while the sum stays below 2^53.
func (d *digest) stats() LatencyStats {
	if d.n == 0 {
		return LatencyStats{}
	}
	// The ranks read below, sorted: the min, the two bracketing each
	// quantile, the max.
	qs := [3]float64{0.50, 0.90, 0.99}
	ranks := [8]int{7: d.n - 1}
	for i, q := range qs {
		ranks[2*i+1], ranks[2*i+2], _ = bracket(d.n, q)
	}
	slices.Sort(ranks[:])
	d.order(ranks[:])
	var at [8]int64
	d.values(ranks[:], at[:])
	var p [3]float64
	for i, q := range qs {
		lo, hi, _ := bracket(d.n, q)
		p[i] = interpolate(d.n, q, at[slices.Index(ranks[:], lo)], at[slices.Index(ranks[:], hi)])
	}
	return LatencyStats{
		Mean: float64(d.sum) / float64(d.n),
		P50:  p[0],
		P90:  p[1],
		P99:  p[2],
		Min:  at[0],
		Max:  at[7],
	}
}

// order arranges the raw samples so that values reads the given ranks
// (ascending) right. The counted values are the table's and the runs'. Raw
// strays below the largest of them interleave with counted values and the
// walk merges them, so they go first, sorted; without runs there are few,
// since only a sample that arrived before the table grew to cover it is
// one. The strays at or above it follow every counted value, so rank k
// among all samples is the one at over[k-counted]: selection puts just the
// ranks asked for in place, not the whole tail.
func (d *digest) order(ranks []int) {
	bound := int64(d.span)
	if last := len(d.runs) - 1; last >= 0 {
		bound = max(bound, d.runs[last].v)
	}
	below := 0
	for i, v := range d.over {
		if v < bound {
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

// interpolate returns the q-quantile of n samples whose order statistics at
// the two ranks bracketing q·(n−1) are lo and hi: the "type 7" estimator
// (linear interpolation between them, the default of R and NumPy) — not the
// nearest-rank method, which never interpolates.
func interpolate(n int, q float64, lo, hi int64) float64 {
	l, h, frac := bracket(n, q)
	if l == h {
		return float64(lo)
	}
	return float64(lo)*(1-frac) + float64(hi)*frac
}

// values sets out[i] to the ranks[i]-th smallest sample (0-based; ranks
// ascending) in one walk that merges the counted values — the table's and
// the runs', themselves merged — with the raw samples. order must have
// placed the ranks. The walk ends at the largest counted value; the raw
// samples it has not passed are the ranks above.
func (d *digest) values(ranks []int, out []int64) {
	t, i, j := 0, 0, 0 // the next table value, run and raw sample
	pos, r := 0, 0     // the samples passed, and the next rank to read
	for r < len(ranks) {
		for t < d.span && d.counts[t] == 0 {
			t++
		}
		var v int64
		var c int
		switch {
		case t < d.span && (i == len(d.runs) || int64(t) <= d.runs[i].v):
			v, c = int64(t), int(d.counts[t])
			t++
		case i < len(d.runs):
			v, c = d.runs[i].v, d.runs[i].c
			i++
		default:
			for ; r < len(ranks); r++ {
				out[r] = d.over[j+ranks[r]-pos]
			}
			return
		}
		for ; j < len(d.over) && d.over[j] < v; j, pos = j+1, pos+1 {
			for ; r < len(ranks) && ranks[r] == pos; r++ {
				out[r] = d.over[j]
			}
		}
		for ; r < len(ranks) && ranks[r] < pos+c; r++ {
			out[r] = v
		}
		pos += c
	}
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
