package verify

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"distcount/internal/counter"
)

// Stream is the value checker behind Evaluate, EvaluateWithFaults and
// EvaluateKeyed, fed one completed operation at a time. A driver observes
// each completion as it is reported and, from time to time, advances the
// stream to a frontier; the stream keeps state for the operations it cannot
// resolve yet, not a copy of the run.
//
// The frontier contract: after Advance(f), every operation still to be
// observed starts at or after f, and every operation ends no earlier than
// it starts; Observe panics on an operation below the latest frontier. Then
// every operation that ended before f has been observed, so the buffered
// operations below f resolve in one sweep of the chunk in time order against
// a running prefix maximum (real-time order) and running end and start
// counts (the approximate bracket's lo and hi). Exactly-once
// accounting needs no frontier: it is a value bitset with a low-water mark
// (valueSet), updated as each completion is observed.
//
// The reports are those of evaluating the whole history at once, count for
// count and First for First: the first duplicate in completion order, the
// smallest gap, the first real-time inversion by (Start, completion index),
// the first out-of-bound value by completion index, and on a keyed run the
// first shard with a violation.
type Stream struct {
	keyed  bool
	shards []shardCheck
	n      int // completion index of the next observed operation

	// Keyed streams only: the (key, epoch) segments by first appearance and
	// the number of epochs seen per key.
	segOf         map[segKey]int32
	segs          []segCheck
	epochs        map[int32]int
	keyDups       int
	keyInversions int

	pend     []pending // observed and not yet resolved, in completion order
	frontier int64     // the latest Advance's; Observe holds the driver to it
	qs, es   []mark    // Advance's scratch: the starts and the ends it sweeps
}

// mark is a start or an end of pend[i]. Advance collects marks in pend
// order, which is completion order, so a stable sort by time orders equal
// times by completion.
type mark struct {
	at int64
	i  int32
}

func markTime(a, b mark) int { return cmp.Compare(a.at, b.at) }

type segKey struct{ key, epoch int32 }

// pending is one observed operation waiting for the frontier to pass its
// start (order query, bracket lo) and its end (prefix maximum, bracket hi).
type pending struct {
	TimedValue
	idx     int   // completion index
	lo      int   // the approximate bracket's lo, once the start is swept
	shard   int32 // index into Stream.shards
	seg     int32 // index into Stream.segs; -1 when no segment sweep applies
	started bool  // the sweep has passed the start
}

// advanceEvery is how many completions a driver observes between two
// advances: enough to amortize a sweep's sorts and, in the engine, the scan
// of the initiators that finds the frontier.
const advanceEvery = 1024

// pendFirst is a stream's first pending capacity: a chunk, plus the
// operations still open across an advance, so a run's buffer is allocated
// once.
const pendFirst = advanceEvery + advanceEvery/4

// shardCheck is one shard's history (the whole run's, on a single counter)
// checked at its guarantee.
type shardCheck struct {
	g              counter.Guarantee
	ops            int
	seen           valueSet
	dups, firstDup int // firstDup: the value of the first duplicate

	// Real-time order: maxDone is the largest value among the operations the
	// sweep has passed the end of (-1 before any); firstInv is the first
	// inversion in (Start, completion index) order and invMax the maxDone it
	// met.
	maxDone    int
	inversions int
	firstInv   pending
	invMax     int

	// The approximate bracket: ended and started count the operations whose
	// end and start the sweep has passed; firstOOB is the out-of-bound
	// operation of smallest completion index (idx -1 while none), and oobHi
	// its bracket's hi.
	ended, started int
	outOfBound     int
	maxRelErr      float64
	firstOOB       pending
	oobHi          int
}

// segCheck is one (key, epoch) segment of a keyed run, checked at the level
// of the shard its first operation ran on.
type segCheck struct {
	level   counter.Consistency
	seen    valueSet
	maxDone int
}

// NewStream returns a stream checking a single counter's run against g.
func NewStream(g counter.Guarantee) *Stream {
	return newStream(false, []counter.Guarantee{g})
}

// NewKeyedStream returns a stream checking a keyed run: each shard's history
// against its own guarantee (indexed by shard), and every (key, epoch)
// segment at its shard's level.
func NewKeyedStream(guarantees []counter.Guarantee) *Stream {
	return newStream(true, guarantees)
}

func newStream(keyed bool, guarantees []counter.Guarantee) *Stream {
	s := &Stream{keyed: keyed, shards: make([]shardCheck, len(guarantees)), pend: make([]pending, 0, pendFirst),
		frontier: math.MinInt64}
	for i, g := range guarantees {
		s.shards[i] = shardCheck{g: g, maxDone: -1, firstOOB: pending{idx: -1}}
	}
	if keyed {
		s.segOf, s.epochs = map[segKey]int32{}, map[int32]int{}
	}
	return s
}

// Observe checks one completed operation, in completion order. at says where
// it ran on a keyed stream; a single counter's stream ignores it. It panics
// when the operation breaks the frontier contract — it starts, or ends,
// before the latest Advance — as the sweep has already passed that time and
// would silently lose the operation's order and bracket checks.
func (s *Stream) Observe(v TimedValue, at Placement) {
	if min(v.Start, v.End) < s.frontier {
		panic(fmt.Sprintf("verify: op %d observed with interval [%d, %d] below the frontier %d", v.Op, v.Start, v.End, s.frontier))
	}
	p := pending{TimedValue: v, idx: s.n, seg: -1}
	s.n++
	if s.keyed {
		p.shard = at.Shard
		p.seg = s.segment(at, v.Value)
	}
	sh := &s.shards[p.shard]
	sh.ops++
	if sh.seen.add(v.Value) {
		if sh.dups == 0 {
			sh.firstDup = v.Value
		}
		sh.dups++
	}
	s.pend = append(s.pend, p)
}

// observeAll feeds a whole history in completion order (at beside it on a
// keyed stream), advancing every chunk to the earliest start still to come:
// a valid frontier whenever no operation ends before it starts, which an
// engine history guarantees. A history that breaks it is resolved in one
// sweep by the report.
func (s *Stream) observeAll(vals []TimedValue, at []Placement) {
	after := make([]int64, max((len(vals)-1)/advanceEvery, 0)) // after[c]: the earliest start past chunk c
	first := int64(math.MaxInt64)
	for i := len(vals) - 1; i >= 0 && after != nil; i-- {
		if vals[i].End < vals[i].Start {
			after = nil
		}
		first = min(first, vals[i].Start)
		if c := i/advanceEvery - 1; i%advanceEvery == 0 && c >= 0 && after != nil {
			after[c] = first
		}
	}
	var p Placement
	for i, v := range vals {
		if at != nil {
			p = at[i]
		}
		s.Observe(v, p)
		if c := i / advanceEvery; i%advanceEvery == advanceEvery-1 && c < len(after) {
			s.Advance(after[c])
		}
	}
}

// segment files a keyed operation under its (key, epoch) segment, counting
// a value the segment already had, and returns the segment's index for the
// order sweep (-1 unless its level is exact). Sequential-only shards make no
// concurrent claim, and approximate shards legitimately repeat values within
// a key (the whole-shard ε bracket is their claim), so neither gets the
// segment checks.
func (s *Stream) segment(at Placement, value int) int32 {
	sk := segKey{at.Key, at.Epoch}
	id, ok := s.segOf[sk]
	if !ok {
		id = int32(len(s.segs))
		s.segOf[sk] = id
		s.segs = append(s.segs, segCheck{level: s.shards[at.Shard].g.Level, maxDone: -1})
		s.epochs[at.Key]++
	}
	sg := &s.segs[id]
	if sg.level != counter.Quiescent && sg.level != counter.Linearizable {
		return -1
	}
	if sg.seen.add(value) {
		s.keyDups++
	}
	return id
}

// Advance resolves the buffered operations the frontier has passed: no
// operation still to be observed starts before frontier.
func (s *Stream) Advance(frontier int64) {
	s.frontier = max(s.frontier, frontier)
	pend := s.pend
	if cap(s.qs) < len(pend) {
		s.qs, s.es = make([]mark, 0, cap(pend)), make([]mark, 0, cap(pend))
	}
	qs, es := s.qs[:0], s.es[:0]
	for i := range pend {
		p := &pend[i]
		if !p.started && p.Start < frontier {
			qs = append(qs, mark{p.Start, int32(i)})
		}
		// Every end the frontier passes is swept now, and an end is never
		// before its start, so a pending operation's end is still ahead.
		if p.End < frontier {
			es = append(es, mark{p.End, int32(i)})
		}
	}
	s.qs, s.es = qs, es
	slices.SortStableFunc(qs, markTime)
	slices.SortStableFunc(es, markTime)

	// Each start meets the ends strictly before it: the real-time order
	// query and the bracket's lo.
	e := 0
	for _, q := range qs {
		for ; e < len(es) && es[e].at < q.at; e++ {
			s.passEnd(&pend[es[e].i])
		}
		s.passStart(&pend[q.i])
	}
	for ; e < len(es); e++ {
		s.passEnd(&pend[es[e].i])
	}
	// Each end meets the starts at or before it: the bracket's hi, which
	// completes an approximate value's bracket.
	q := 0
	for _, e := range es {
		for ; q < len(qs) && qs[q].at <= e.at; q++ {
			s.shards[pend[qs[q].i].shard].started++
		}
		p := &pend[e.i]
		if sh := &s.shards[p.shard]; sh.g.Level == counter.Approximate {
			sh.judge(p, sh.started-1) // minus the operation itself
		}
	}
	for ; q < len(qs); q++ {
		s.shards[pend[qs[q].i].shard].started++
	}

	keep := 0
	for i := range pend {
		if pend[i].End < frontier {
			continue
		}
		pend[keep] = pend[i]
		keep++
	}
	s.pend = pend[:keep]
}

// passStart is the sweep reaching p's start: every operation that ended
// before it has been passed, so p is an order inversion exactly when one of
// them had a value at least p's, and lo is their count.
func (s *Stream) passStart(p *pending) {
	sh := &s.shards[p.shard]
	if sh.maxDone >= p.Value {
		if sh.inversions == 0 {
			sh.firstInv, sh.invMax = *p, sh.maxDone
		}
		sh.inversions++
	}
	if p.seg >= 0 {
		if sg := &s.segs[p.seg]; sg.level == counter.Linearizable && sg.maxDone >= p.Value {
			s.keyInversions++
		}
	}
	p.lo = sh.ended
	p.started = true
}

// passEnd is the sweep passing p's end: its value joins the prefix maxima.
func (s *Stream) passEnd(p *pending) {
	sh := &s.shards[p.shard]
	sh.maxDone = max(sh.maxDone, p.Value)
	sh.ended++
	if p.seg >= 0 {
		sg := &s.segs[p.seg]
		sg.maxDone = max(sg.maxDone, p.Value)
	}
}

// approxTolerance absorbs float rounding in the ε bound comparison so a
// value sitting exactly on (1±ε) of the bracket edge passes.
const approxTolerance = 1e-9

// judge checks one resolved value of an ε-approximate shard against the
// true prefix count. Exactness is unobservable under concurrency, but the
// true count at the moment operation i read its value is bracketed: at least
// lo_i = |{j : End_j < Start_i}| increments had certainly been applied
// (those operations finished before i began), and at most
// hi_i = |{j ≠ i : Start_j ≤ End_i}| could have been (no other increment had
// started yet). A value is in bound iff (1-ε)·lo_i ≤ v_i ≤ (1+ε)·hi_i;
// anything outside is inconsistent with EVERY exact execution by more than
// the claimed ε and counts as a violation. MaxRelError records the worst
// relative excursion beyond the [lo, hi] bracket itself (ε plays no part in
// the measurement, so the report shows the margin to the claim).
func (sh *shardCheck) judge(p *pending, hiCount int) {
	fv, lo, hi := float64(p.Value), float64(p.lo), float64(hiCount)
	var relErr float64
	switch {
	case fv < lo:
		relErr = (lo - fv) / math.Max(lo, 1)
	case fv > hi:
		relErr = (fv - hi) / math.Max(hi, 1)
	}
	if relErr > sh.maxRelErr {
		sh.maxRelErr = relErr
	}
	eps := sh.g.Epsilon
	if fv < (1-eps)*lo-approxTolerance || fv > (1+eps)*hi+approxTolerance {
		sh.outOfBound++
		if sh.firstOOB.idx < 0 || p.idx < sh.firstOOB.idx {
			sh.firstOOB, sh.oobHi = *p, hiCount
		}
	}
}

// Report resolves everything still buffered and returns a single counter's
// report. missing is the number of completed operations whose value could
// not be read back.
func (s *Stream) Report(missing int, fc FaultContext) Report {
	s.Advance(math.MaxInt64)
	rep := s.shards[0].report(fc)
	rep.Missing = missing
	rep.Violations += missing
	if missing > 0 && rep.First == "" {
		rep.First = fmt.Sprintf("%d operations completed without delivering a value", missing)
	}
	return rep
}

// report is the shard's history evaluated at its guarantee. When the run's
// fault plan fired, the property failures are excused: counted, not
// violations.
func (sh *shardCheck) report(fc FaultContext) Report {
	level := sh.g.Level
	rep := Report{Property: sh.g.String(), Ops: sh.ops, Wedged: fc.Wedged, FaultsFired: fc.Fired,
		Duplicates: sh.dups, OrderViolations: sh.inversions}
	var firstGap int
	rep.Gaps, firstGap = sh.seen.gaps(sh.ops)
	// Duplicates and gaps are violations only of an exact claim; for
	// approximate guarantees they stay measurements (repeated values are the
	// point of not paying for exactness).
	if level == counter.Quiescent || level == counter.Linearizable {
		switch {
		case rep.Duplicates > 0:
			rep.First = fmt.Sprintf("value %d handed out more than once", sh.firstDup)
		case rep.Gaps > 0:
			rep.First = fmt.Sprintf("value %d never handed out", firstGap)
		}
	}
	switch level {
	case counter.Linearizable:
		if rep.First == "" && rep.OrderViolations > 0 {
			rep.First = fmt.Sprintf("op %d got value %d although an operation with value >= %d completed before it started",
				sh.firstInv.Op, sh.firstInv.Value, sh.invMax)
		}
		rep.Violations = rep.Duplicates + rep.Gaps + rep.OrderViolations
	case counter.Quiescent:
		rep.Violations = rep.Duplicates + rep.Gaps
	case counter.Approximate:
		rep.Epsilon = sh.g.Epsilon
		rep.OutOfBound, rep.MaxRelError = sh.outOfBound, sh.maxRelErr
		if p := sh.firstOOB; p.idx >= 0 {
			rep.First = fmt.Sprintf("op %d got value %d, outside ±%g of the true count bracket [%d, %d]",
				p.Op, p.Value, rep.Epsilon, p.lo, sh.oobHi)
		}
		rep.Violations = rep.OutOfBound
	}
	if fc.Fired {
		rep.Excused = rep.Violations
		rep.Violations = 0
		rep.First = ""
	}
	return rep
}

// KeyedReport resolves everything still buffered and returns a keyed run's
// report; algos names the shards (indexed by shard) and missing counts the
// completed operations whose value could not be read back (summary only).
func (s *Stream) KeyedReport(algos []string, missing int, fc FaultContext) KeyedReport {
	s.Advance(math.MaxInt64)
	rep := KeyedReport{
		Keys:               len(s.epochs),
		Segments:           len(s.segs),
		KeyDuplicates:      s.keyDups,
		KeyOrderViolations: s.keyInversions,
	}
	for _, epochs := range s.epochs {
		if epochs > 1 {
			rep.MigratedKeys++
		}
	}
	allSame := true
	for i := range s.shards {
		sh := &s.shards[i]
		sr := ShardReport{Shard: i, Report: sh.report(fc)}
		if i < len(algos) {
			sr.Algorithm = algos[i]
		}
		rep.Shards = append(rep.Shards, sr)
		if sh.g != s.shards[0].g {
			allSame = false
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
	if allSame && len(s.shards) > 0 {
		sum.Property = s.shards[0].g.String() + "/sharded"
		sum.Epsilon = s.shards[0].g.Epsilon
	} else {
		sum.Property = "mixed/sharded"
	}
	return rep
}

// valueSet records which values have been handed out. A run that hands out
// each value once fills them in from 0 up, so the set is a bitset whose
// window starts at a low-water mark: every value below low is a member, and
// the window covers the values still being handed out around the run's
// progress. A correct run's set therefore spans its concurrency, not its
// length. Members outside the window — negative values, and strays too far
// above it to be worth the bits — live in a map.
type valueSet struct {
	low   int      // a multiple of 64; every value in [0, low) is a member
	words []uint64 // bit j of words[off+i] is value low+64i+j
	off   int      // words[:off] are spent (their values are below low)
	adds  int
	rest  map[int]struct{}
}

// setAllowance is the window, in words, a set may always grow to; past it
// the window is bounded by 64 bits per value added, so a stray far above the
// run's values costs a map entry, not a stretch of empty bits.
const setAllowance = 1024

// add inserts v and reports whether the set already had it.
func (s *valueSet) add(v int) (dup bool) {
	s.adds++
	if v >= 0 && v < s.low {
		return true
	}
	if v < 0 || !s.cover(v) {
		if _, dup = s.rest[v]; !dup {
			if s.rest == nil {
				s.rest = map[int]struct{}{}
			}
			s.rest[v] = struct{}{}
		}
		return dup
	}
	d := v - s.low
	w, bit := s.off+d>>6, uint64(1)<<(d&63)
	if s.words[w]&bit != 0 {
		return true
	}
	s.words[w] |= bit
	for s.off < len(s.words) && s.words[s.off] == ^uint64(0) {
		s.off++
		s.low += 64
	}
	return false
}

// cover grows the window to reach v (≥ low) unless the allowance forbids
// it, and reports whether v is in the window. Spent words are reclaimed on
// the way, and map members the grown window reaches move into it.
func (s *valueSet) cover(v int) bool {
	live := len(s.words) - s.off
	need := (v-s.low)>>6 + 1
	if need <= live {
		return true
	}
	if need > setAllowance && need > s.adds {
		return false
	}
	if need > cap(s.words) {
		grown := make([]uint64, need, max(need, 2*cap(s.words)))
		copy(grown, s.words[s.off:])
		s.words, s.off = grown, 0
	} else {
		if s.off > 0 {
			copy(s.words, s.words[s.off:])
			s.off = 0
		}
		s.words = s.words[:need]
		clear(s.words[live:])
	}
	oldEnd, end := s.low+64*live, s.low+64*need
	for r := range s.rest {
		if r >= oldEnd && r < end {
			d := r - s.low
			s.words[d>>6] |= 1 << (d & 63)
			delete(s.rest, r)
		}
	}
	return true
}

// gaps returns how many values in [0, n) are not members, and the smallest
// of them (meaningful only when there is one).
func (s *valueSet) gaps(n int) (count, first int) {
	have := min(s.low, n)
	window := s.words[s.off:]
	end := s.low + 64*len(window)
	for i, w := range window {
		base := s.low + 64*i
		if base >= n {
			break
		}
		if n-base < 64 {
			w &= 1<<(n-base) - 1
		}
		have += bits.OnesCount64(w)
	}
	for r := range s.rest {
		if r >= end && r < n {
			have++
		}
	}
	if count = n - have; count == 0 {
		return 0, 0
	}
	// Every value below low is a member, so the smallest non-member is the
	// window's first clear bit or, past a full window, the first value above
	// it the map lacks.
	for i, w := range window {
		if w != ^uint64(0) {
			return count, s.low + 64*i + bits.TrailingZeros64(^w)
		}
	}
	for first = end; ; first++ {
		if _, ok := s.rest[first]; !ok {
			return count, first
		}
	}
}
