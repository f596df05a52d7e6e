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

// digestDense bounds the exact values a digest counts. Simulated latencies
// are small tick counts and rt's are mostly below 65 µs in nanoseconds, so
// on a long run nearly every sample lands in the table.
const (
	denseBits   = 16
	digestDense = 1 << denseBits
)

// A wall-clock digest rounds samples of digestDense ns or more to wallBits
// significant bits (roundWall) and counts them too: 2^(wallBits-1) values
// per doubling, over the wallOctaves doublings up to 2^63, follow the exact
// ones in the table.
const (
	wallBits    = 10
	wallOctaves = 63 - denseBits
	digestSlots = digestDense + wallOctaves<<(wallBits-1)
)

// pageSize is how many counters a page of the table holds: 4 KB, which
// covers a run whose latencies stay below a thousand ticks.
const pageSize = 1 << 10

// digest is an exact latency digest: its statistics are those of sorting
// every sample, bit for bit, without keeping the samples. Values the table
// holds a page for are counted; the others are strays, kept raw. A page is
// allocated on the first sample it would count, if the pages then held
// cost (4 bytes a counter) no more than the samples seen so far would cost
// raw (8 bytes each); the first page is always allowed. So a digest holds
// O(min(samples, digestSlots)) bytes plus the strays: a 300-op run with
// microsecond-wide latencies pays for one page, not 64, a 500 000-op run
// does not pay per sample below the bound, and nothing is copied as the
// table grows. On a wall-clock run (wall) the rounded samples are counted
// too, in at most 24 pages, so strays are only negatives and samples that
// came before their page was affordable: the digest stays in constant
// memory however long the run. The mean stays exact either way.
type digest struct {
	wall  bool // samples are wall-clock nanoseconds: round those of digestDense or more
	pages [(digestSlots + pageSize - 1) / pageSize]*[pageSize]uint32
	held  int     // pages allocated; reset keeps them
	span  int     // every counted sample's slot is below span: rank and reset stop there
	over  []int64 // the strays, arranged for rank by stats
	n     int
	sum   int64
}

func (d *digest) add(v int64) {
	d.n++
	d.sum += v
	s, limit := v, int64(digestDense)
	if d.wall && v >= digestDense {
		v = roundWall(v)
		s, limit = wallSlot(v), digestSlots
	}
	if uint64(s) < uint64(limit) {
		p := d.pages[s/pageSize]
		if p == nil && (d.held == 0 || (d.held+1)*pageSize <= 2*d.n) {
			p = new([pageSize]uint32)
			d.pages[s/pageSize] = p
			d.held++
		}
		if p != nil {
			p[s%pageSize]++
			d.span = max(d.span, int(s)+1)
			return
		}
	}
	if d.over == nil {
		// Strays are few or, on a wide distribution, most of the run: skip
		// the first doublings.
		d.over = make([]int64, 0, pageSize/2)
	}
	d.over = append(d.over, v)
}

// roundWall rounds v, when it is digestDense or more, to the nearest value
// with wallBits significant bits: a relative error below 2^-wallBits. Smaller
// values are returned as they are.
func roundWall(v int64) int64 {
	if v < digestDense {
		return v
	}
	shift := bits.Len64(uint64(v)) - wallBits
	return (v + 1<<(shift-1)) >> shift << shift
}

// wallSlot is the table slot of a rounded wall-clock sample r of digestDense
// or more: its doubling above digestDense, then its wallBits-1 bits below
// the leading one. A slot at or past digestSlots (r overflowed) is a stray's.
func wallSlot(r int64) int64 {
	l := bits.Len64(uint64(r))
	mantissa := int64(uint64(r) >> (l - wallBits))
	return digestDense + int64(l-denseBits-1)<<(wallBits-1) + mantissa - 1<<(wallBits-1)
}

// slotValue is the sample value slot s counts: wallSlot's inverse past the
// exact values.
func slotValue(s int) int64 {
	if s < digestDense {
		return int64(s)
	}
	i := s - digestDense
	mantissa := int64(1<<(wallBits-1) + i%(1<<(wallBits-1)))
	return mantissa << (i>>(wallBits-1) + denseBits + 1 - wallBits)
}

// reset empties the digest, keeping its pages and buffer for the next
// population.
func (d *digest) reset() {
	for _, p := range d.pages[:(d.span+pageSize-1)/pageSize] {
		if p != nil {
			clear(p[:])
		}
	}
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

// order arranges the strays so that values reads the given ranks
// (ascending) right. Strays below the largest counted value interleave with
// counted values and the walk merges them, so they go first, sorted; they
// are few, since only negatives and samples that came before their page was
// affordable are below it. The strays at or above it follow every counted
// value, so rank k among all samples is the one at over[k-counted]:
// selection puts just the ranks asked for in place, not the whole tail.
func (d *digest) order(ranks []int) {
	below := 0
	if d.span > 0 {
		bound := slotValue(d.span - 1)
		for i, v := range d.over {
			if v < bound {
				d.over[i], d.over[below] = d.over[below], v
				below++
			}
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
// ascending) in one walk that merges the counted values, page by page, with
// the strays. order must have placed the ranks. The walk ends at the
// largest counted value; the strays it has not passed are the ranks above.
func (d *digest) values(ranks []int, out []int64) {
	j, pos, r := 0, 0, 0 // the next stray, the samples passed, the next rank to read
	for s := 0; s < d.span && r < len(ranks); s++ {
		p := d.pages[s/pageSize]
		if p == nil {
			s += pageSize - 1
			continue
		}
		c := int(p[s%pageSize])
		if c == 0 {
			continue
		}
		v := slotValue(s)
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
	for ; r < len(ranks); r++ {
		out[r] = d.over[j+ranks[r]-pos]
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
