package engine

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The oracles: the sort-based code the streaming structures replaced, kept
// verbatim as the judge of the property tests below.

// sortedStats computes the latency digest by sorting lats in place.
func sortedStats(lats []int64) LatencyStats {
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

// percentile interpolates the q-quantile of a sorted vector (type 7).
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

// peakConcurrency sweeps the [start, done] intervals after sorting both
// slices in place (zero-duration completions bumped) and returns the
// maximum overlap.
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

// digestOf streams vals through a digest.
func digestOf(vals []int64) LatencyStats {
	var d digest
	for _, v := range vals {
		d.add(v)
	}
	return d.stats()
}

// sweepAll feeds the intervals to a sweep in the order given and sweeps
// them once, at the end — the degenerate schedule of a run shorter than one
// chunk.
func sweepAll(starts, dones []int64) int {
	var w inFlightSweep
	for i := range starts {
		w.add(starts[i], dones[i])
	}
	return w.finish()
}

func TestDigestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n int, gen func() int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = gen()
		}
		return vals
	}
	cases := map[string][]int64{
		"empty":        nil,
		"one":          {7},
		"one zero":     {0},
		"one large":    {digestDense + 5},
		"two":          {9, 3},
		"two equal":    {4, 4},
		"all zero":     make([]int64, 100),
		"bound edges":  {digestDense - 1, digestDense, digestDense + 1, 0, digestDense - 1},
		"small ticks":  draw(5000, func() int64 { return rng.Int63n(40) }),
		"heavy ties":   draw(5000, func() int64 { return rng.Int63n(3) * 1000 }),
		"rt-like ns":   draw(5000, func() int64 { return 800 + rng.Int63n(4*digestDense) }),
		"mostly large": draw(3000, func() int64 { return digestDense - 10 + rng.Int63n(1<<30) }),
		"with strays":  draw(3000, func() int64 { return rng.Int63n(1<<20) - 1<<10 }),
		"few and wide": draw(300, func() int64 { return rng.Int63n(digestDense) }),
	}
	// A closed loop falling behind: latencies ramp up with the run, so the
	// table keeps growing and early samples above it stay raw beneath it.
	ramp := make([]int64, 40000)
	for i := range ramp {
		ramp[i] = int64(i) + rng.Int63n(2000)
	}
	cases["ramp"] = ramp
	for name, vals := range cases {
		got := digestOf(vals)
		if want := sortedStats(slices.Clone(vals)); got != want {
			t.Errorf("%s: digest %+v, sort %+v", name, got, want)
		}
	}
}

// TestDigestSelectMatchesSort: stats selects its ranks among the strays
// above the largest counted value instead of sorting them, and reads the
// same numbers as sorting every sample, on random populations built to
// stress the split: strays that arrived before their page was affordable
// and now sit among counted values, heavy duplicates on both sides of the
// dense bound, all-equal samples and a single one.
func TestDigestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 400; trial++ {
		var vals []int64
		switch trial % 4 {
		case 0: // early wide samples stay raw, then their pages are allocated
			for i := rng.Intn(200); i > 0; i-- {
				vals = append(vals, pageSize+rng.Int63n(4*pageSize))
			}
			for i := rng.Intn(20000); i > 0; i-- {
				vals = append(vals, rng.Int63n(8*pageSize))
			}
		case 1: // few distinct values, some above the dense bound
			levels := []int64{0, 7, pageSize + 1, digestDense - 1, digestDense, 3 * digestDense}
			for i := 1 + rng.Intn(5000); i > 0; i-- {
				vals = append(vals, levels[rng.Intn(len(levels))])
			}
		case 2: // all equal
			v := []int64{-3, 0, 500, digestDense + 9}[rng.Intn(4)]
			for i := 1 + rng.Intn(3000); i > 0; i-- {
				vals = append(vals, v)
			}
		default: // a single sample, or a sprinkle of negatives in a long tail
			if rng.Intn(2) == 0 {
				vals = []int64{rng.Int63n(4*digestDense) - 8}
				break
			}
			for i := 1 + rng.Intn(8000); i > 0; i-- {
				vals = append(vals, rng.Int63n(1<<24)-rng.Int63n(64))
			}
		}
		if got, want := digestOf(vals), sortedStats(slices.Clone(vals)); got != want {
			t.Fatalf("trial %d (%d samples): digest %+v, sort %+v", trial, len(vals), got, want)
		}
	}
}

// TestNthMatchesSort: the selection behind stats leaves the k-th smallest
// at k with nothing larger before it and nothing smaller after, on sorted,
// reversed, tied and random input.
func TestNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := [][]int64{{5}, {2, 1}, {3, 3, 3, 3}}
	for _, n := range []int{10, 257, 4000} {
		up, down, ties, random := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
		for i := range up {
			up[i], down[i] = int64(i), int64(n-i)
			ties[i], random[i] = rng.Int63n(3), rng.Int63()-rng.Int63()
		}
		inputs = append(inputs, up, down, ties, random)
	}
	for _, in := range inputs {
		sorted := slices.Sorted(slices.Values(in))
		for _, k := range []int{0, len(in) / 3, len(in) / 2, len(in) - 1} {
			a := slices.Clone(in)
			nth(a, k)
			if a[k] != sorted[k] {
				t.Fatalf("n=%d k=%d: %d at k, want %d", len(in), k, a[k], sorted[k])
			}
			if slices.Max(a[:k+1]) > a[k] || slices.Min(a[k:]) < a[k] {
				t.Fatalf("n=%d k=%d: not partitioned around %d", len(in), k, a[k])
			}
		}
	}
}

// TestDigestFootprint: the digest holds O(min(samples, digestSlots)) bytes —
// a short run with wide latencies keeps them raw instead of paying for the
// whole table, and a long one stops allocating once its pages cover them.
func TestDigestFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d digest
	for i := 0; i < 300; i++ {
		d.add(rng.Int63n(digestDense))
	}
	if d.held != 1 {
		t.Fatalf("300 wide samples hold %d pages, want 1", d.held)
	}
	for d.n < 100_000 {
		d.add(rng.Int63n(digestDense))
	}
	raw := len(d.over)
	for d.n < 400_000 {
		d.add(rng.Int63n(digestDense))
	}
	if d.held > digestDense/pageSize || len(d.over) != raw || raw > digestDense/2 {
		t.Fatalf("after 400k samples below the bound: %d pages, %d raw samples (%d at 100k)",
			d.held, len(d.over), raw)
	}
}

// TestDigestCompactsRepeatedStrays: values that repeat above the dense
// bound are strays of a plain digest, kept raw, and a wall-clock digest
// counts them at their rounded slot instead. Both read what sorting reads
// (the wall digest, what sorting the rounded samples reads, with the exact
// mean) on populations of a few hundred repeated large values, some
// negatives and a sprinkle of table values whose pages come late, fed to a
// digest reset after an earlier population. The wall digest's raw buffer
// keeps only the negatives and the samples that came before their page was
// affordable, whatever the number of repeats.
func TestDigestCompactsRepeatedStrays(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	levels := func(k int, lo, hi int64) []int64 {
		out := make([]int64, k)
		for i := range out {
			out[i] = lo + rng.Int63n(hi-lo)
		}
		return out
	}
	for trial := 0; trial < 30; trial++ {
		var vals []int64
		large := levels(1+rng.Intn(400), digestDense, 1<<30)
		negative := levels(1+rng.Intn(4), -50, 0)
		negatives := 0
		for i := 20_000 + rng.Intn(40_000); i > 0; i-- {
			switch r := rng.Intn(100); {
			case r < 70:
				vals = append(vals, large[rng.Intn(len(large))])
			case r < 72:
				vals = append(vals, negative[rng.Intn(len(negative))])
				negatives++
			case r < 80 && trial%3 == 0:
				vals = append(vals, rng.Int63n(1<<40)) // diverse
			default:
				vals = append(vals, rng.Int63n(int64(trial%4+1)*8*pageSize))
			}
		}
		d, w := digest{}, digest{wall: true}
		for _, v := range vals[:len(vals)/3] {
			d.add(v + 11)
			w.add(v + 11)
		}
		d.reset()
		w.reset()
		var sum int64
		for _, v := range vals {
			d.add(v)
			w.add(v)
			sum += v
		}
		// A non-negative stray came while its page was unaffordable: before
		// the samples seen would cost as much raw as one more page than the
		// digest now holds.
		if strays := len(w.over) - negatives; strays < 0 || strays > (w.held+1)*pageSize/2 {
			t.Fatalf("trial %d (%d samples, %d negatives, %d pages): the wall digest keeps %d raw samples",
				trial, len(vals), negatives, w.held, len(w.over))
		}
		if got, want := d.stats(), sortedStats(slices.Clone(vals)); got != want {
			t.Fatalf("trial %d (%d samples, %d raw): digest %+v, sort %+v", trial, len(vals), len(d.over), got, want)
		}
		rounded := make([]int64, len(vals))
		for i, v := range vals {
			rounded[i] = roundWall(v)
		}
		want := sortedStats(rounded)
		want.Mean = float64(sum) / float64(len(vals))
		if got := w.stats(); got != want {
			t.Fatalf("trial %d (%d samples, %d raw): wall digest %+v, sort of the rounded samples %+v",
				trial, len(vals), len(w.over), got, want)
		}
	}
}

// TestDigestWallPrecision: a wall-clock digest rounds samples of digestDense
// ns or more to wallBits significant bits and counts them: it reports, bit
// for bit, what sorting the rounded samples reads, with the exact mean, so
// every figure of that size is within 2^-wallBits of what sorting the exact
// samples reads and smaller ones are exact. The second half of a long run
// allocates no raw buffer and no page, but one for each doubling its samples
// reach past the first half's.
func TestDigestWallPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	trend := int64(digestDense)
	within := func(name string, got, want float64) {
		t.Helper()
		if want >= digestDense && math.Abs(got-want) > want/(1<<wallBits) {
			t.Errorf("%s: %v, exact %v: relative error %.2e above 2^-%d", name, got, want, math.Abs(got-want)/want, wallBits)
		}
		if want < digestDense && got != want && math.Max(got, want) < digestDense {
			t.Errorf("%s: %v, exact %v: a figure below %d ns must be exact", name, got, want, digestDense)
		}
	}
	for _, tc := range []struct {
		name string
		draw func() int64
	}{
		{"all below the bound", func() int64 { return 500 + rng.Int63n(digestDense-500) }},
		{"rt-like: a few microseconds, a long tail", func() int64 {
			return 1500 + int64(rng.ExpFloat64()*3000) + rng.Int63n(2)*int64(rng.ExpFloat64()*200_000)
		}},
		{"all above the bound", func() int64 { return digestDense + rng.Int63n(1<<33) }},
		{"straddling", func() int64 { return digestDense - 64 + rng.Int63n(128) }},
		{"trending: a closed loop falling behind", func() int64 {
			trend += 2000 // at first faster than the rounding's steps
			return trend + rng.Int63n(1000)
		}},
	} {
		vals := make([]int64, 600_000)
		d := digest{wall: true}
		var held, raw int
		var sum, top, halfTop int64
		for i := range vals {
			if i == len(vals)/2 {
				held, raw, halfTop = d.held, cap(d.over), top
			}
			vals[i] = tc.draw()
			d.add(vals[i])
			sum, top = sum+vals[i], max(top, vals[i])
		}
		got := d.stats()
		exact := sortedStats(slices.Clone(vals))
		within(tc.name+" p50", got.P50, exact.P50)
		within(tc.name+" p90", got.P90, exact.P90)
		within(tc.name+" p99", got.P99, exact.P99)
		within(tc.name+" min", float64(got.Min), float64(exact.Min))
		within(tc.name+" max", float64(got.Max), float64(exact.Max))
		rounded := make([]int64, len(vals))
		for i, v := range vals {
			rounded[i] = roundWall(v)
		}
		want := sortedStats(rounded)
		want.Mean = float64(sum) / float64(len(vals))
		if got != want {
			t.Errorf("%s: digest %+v, sort of the rounded samples %+v", tc.name, got, want)
		}
		doublings := bits.Len64(uint64(roundWall(top))) - bits.Len64(uint64(roundWall(halfTop)))
		if cap(d.over) != raw || d.held-held > doublings {
			t.Errorf("%s: %d pages and a raw buffer of %d samples after %d samples; %d and %d halfway",
				tc.name, d.held, cap(d.over), len(vals), held, raw)
		}
	}
	for _, v := range []int64{0, 1, digestDense - 1, -5} {
		if r := roundWall(v); r != v {
			t.Errorf("roundWall(%d) = %d, want it unchanged", v, r)
		}
	}
	for v := int64(digestDense); v < 1<<40; v = v*3/2 + 7 {
		r := roundWall(v)
		if math.Abs(float64(r-v)) >= float64(v)/(1<<wallBits) || bits.Len64(uint64(r))-bits.TrailingZeros64(uint64(r)) > wallBits {
			t.Fatalf("roundWall(%d) = %d", v, r)
		}
		if s := wallSlot(r); s < digestDense || s >= digestSlots || slotValue(int(s)) != r {
			t.Fatalf("roundWall(%d) = %d counts at slot %d, which reads %d", v, r, s, slotValue(int(s)))
		}
	}
}

// TestDigestReset: a reused digest forgets the previous population (the
// open loop's buckets share one).
func TestDigestReset(t *testing.T) {
	var d digest
	for _, v := range []int64{5, 900, digestDense + 1} {
		d.add(v)
	}
	d.reset()
	if got := d.stats(); got != (LatencyStats{}) {
		t.Fatalf("reset digest reports %+v", got)
	}
	d.add(3)
	d.add(1)
	if got, want := d.stats(), sortedStats([]int64{3, 1}); got != want {
		t.Fatalf("after reset: digest %+v, sort %+v", got, want)
	}
}

// FuzzDigestMatchesSort: whatever the samples, the digest reports what
// sorting them reports, bit for bit, fresh or reset after another
// population. Samples are decoded as 5-byte values offset below zero and
// capped in number, so the corpus reaches both sides of the dense bound and
// the stray negatives while every partial sum stays exact in a float64 (the
// oracle sums in floating point).
func FuzzDigestMatchesSort(f *testing.F) {
	enc := func(vals ...int64) []byte {
		var data []byte
		for _, v := range vals {
			data = append(data, binary.LittleEndian.AppendUint64(nil, uint64(v+256))[:5]...)
		}
		return data
	}
	f.Add(enc())
	f.Add(enc(0))
	f.Add(enc(3, 3, 1, 200, 1))
	f.Add(enc(digestDense-1, digestDense, -1, 0, 1<<39))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []int64
		for ; len(data) >= 5 && len(vals) < 4096; data = data[5:] {
			v := binary.LittleEndian.Uint64(append(data[:5:5], 0, 0, 0))
			vals = append(vals, int64(v)-256)
		}
		want := sortedStats(slices.Clone(vals))
		if got := digestOf(vals); got != want {
			t.Fatalf("digest %+v, sort %+v over %v", got, want, vals)
		}
		// A reused digest (the open loop's buckets share one) forgets an
		// earlier population, here the reversed second half.
		var d digest
		for i := len(vals) - 1; i >= len(vals)/2; i-- {
			d.add(vals[i] + 7)
		}
		d.reset()
		for _, v := range vals {
			d.add(v)
		}
		if got := d.stats(); got != want {
			t.Fatalf("reused digest %+v, sort %+v over %v", got, want, vals)
		}
	})
}

// interval is one operation of a simulated schedule: report is when its
// completion reaches the engine (never, for a wedged operation).
type interval struct {
	start, done, report int64
	wedged              bool
}

// runSweep replays a schedule the way the loops drive the sweep: time moves
// from report to report, each reported completion is added, and a due sweep
// advances to the engine's frontier — the clock, or the oldest started
// operation not yet reported. It returns the streamed peak and the number of
// mid-run sweeps.
func runSweep(ivs []interval) (peak, sweeps int) {
	order := make([]int, 0, len(ivs))
	for i, iv := range ivs {
		if !iv.wedged {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ivs[a].report, ivs[b].report) })
	reported := make([]bool, len(ivs))
	var w inFlightSweep
	for _, i := range order {
		now := ivs[i].report
		reported[i] = true
		w.add(ivs[i].start, ivs[i].done)
		if !w.due() {
			continue
		}
		frontier := now
		for j, iv := range ivs {
			if !reported[j] && iv.start < frontier {
				// Started (or will have: an admission never starts an
				// operation before the clock) and still unreported.
				frontier = iv.start
			}
		}
		w.advance(frontier)
		sweeps++
	}
	return w.finish(), sweeps
}

// oraclePeak is the parent's answer for the schedule's completed intervals.
func oraclePeak(ivs []interval) int {
	var starts, dones []int64
	for _, iv := range ivs {
		if !iv.wedged {
			starts = append(starts, iv.start)
			dones = append(dones, iv.done)
		}
	}
	return peakConcurrency(starts, dones)
}

func TestInFlightSweepMatchesSort(t *testing.T) {
	// schedule draws n operations over clients initiators, one at a time
	// each, as the loops admit them. late is how far a completion's report
	// may trail its done stamp (0 on the simulator; rt reports slightly out
	// of done order), zeroShare the share of zero-duration operations and
	// wedgeShare the share that never completes, wedging its initiator.
	schedule := func(rng *rand.Rand, n, clients int, maxDur, late int64, zeroShare, wedgeShare float64) []interval {
		free := make([]int64, clients) // when each initiator may start again
		var ivs []interval
		for len(ivs) < n {
			c := rng.Intn(clients)
			if free[c] == math.MaxInt64 {
				continue
			}
			iv := interval{start: free[c] + rng.Int63n(3)}
			if rng.Float64() >= zeroShare {
				iv.done = iv.start + rng.Int63n(maxDur+1)
			} else {
				iv.done = iv.start
			}
			iv.report = iv.done
			if late > 0 {
				iv.report += rng.Int63n(late + 1)
			}
			free[c] = iv.report
			if rng.Float64() < wedgeShare {
				iv.wedged, free[c] = true, math.MaxInt64
			}
			ivs = append(ivs, iv)
			if allWedged := !slices.ContainsFunc(free, func(f int64) bool { return f != math.MaxInt64 }); allWedged {
				break
			}
		}
		return ivs
	}
	for _, tc := range []struct {
		name              string
		n, clients        int
		maxDur, late      int64
		zeroShare, wedged float64
		wantSweeps        bool
	}{
		{name: "one op", n: 1, clients: 1, maxDur: 5},
		{name: "two ops", n: 2, clients: 2, maxDur: 5},
		{name: "ties on every tick", n: 2000, clients: 8, maxDur: 1, zeroShare: 0.3},
		{name: "all zero duration", n: 2000, clients: 8, zeroShare: 1},
		{name: "sim, several chunks", n: 5 * sweepChunk, clients: 16, maxDur: 40, zeroShare: 0.05, wantSweeps: true},
		{name: "rt, reported out of done order", n: 5 * sweepChunk, clients: 8, maxDur: 3000, late: 2000, wantSweeps: true},
		{name: "wedged initiators hold the frontier", n: 6 * sweepChunk, clients: 32, maxDur: 20, wedged: 0.0005, wantSweeps: true},
		{name: "one straggler spans the run", n: 3 * sweepChunk, clients: 4, maxDur: 6, wantSweeps: true},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ivs := schedule(rng, tc.n, tc.clients, tc.maxDur, tc.late, tc.zeroShare, tc.wedged)
			if tc.name == "one straggler spans the run" {
				last := ivs[len(ivs)-1]
				ivs = append(ivs, interval{start: 1, done: last.done + 9, report: last.report + 9})
			}
			got, sweeps := runSweep(ivs)
			if want := oraclePeak(ivs); got != want {
				t.Errorf("%s, seed %d: streamed peak %d, sort %d (%d ops, %d sweeps)", tc.name, seed, got, want, len(ivs), sweeps)
			}
			if tc.wantSweeps && sweeps < 2 {
				t.Errorf("%s, seed %d: %d mid-run sweeps over %d ops — the case no longer exercises the online path", tc.name, seed, sweeps, len(ivs))
			}
		}
	}
}

// TestInFlightSweepBufferStaysBounded: with nothing holding the frontier
// back, the buffer never holds much more than a chunk however long the run.
func TestInFlightSweepBufferStaysBounded(t *testing.T) {
	var w inFlightSweep
	const clients = 8
	for op := int64(0); op < 50*sweepChunk; op++ {
		start := op / clients * 10
		w.add(start, start+7)
		if w.due() {
			w.advance(start) // the rest of this round is still to come
		}
		if len(w.dones) > sweepChunk+clients {
			t.Fatalf("buffer holds %d intervals after %d ops", len(w.dones), op)
		}
	}
	if got := w.finish(); got != clients {
		t.Fatalf("peak %d, want %d", got, clients)
	}
}
