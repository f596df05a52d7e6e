package verify

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// streamCase is one generated run: its history in completion (observation)
// order, where each operation ran, and for each position the largest
// frontier the stream may be advanced to once that completion has been
// observed — no operation observed later starts before it.
type streamCase struct {
	guarantees []counter.Guarantee
	ops        []keyedOp
	bound      []int64
	keyed      bool
	missing    int
	fc         FaultContext
}

// genStreamCase draws a run the way the engine produces one: initiators
// that each keep one operation in flight, completions reported after they
// end and possibly out of end order (rt), and shards handing out their own
// value sequences with duplicates, gaps, strays below zero and far above
// the run, approximate estimates, and keys migrating to the last shard
// mid-run (a new epoch).
func genStreamCase(rng *rand.Rand, n int, keyed bool) streamCase {
	levels := []counter.Guarantee{
		counter.Exact(counter.Linearizable), counter.Exact(counter.Quiescent),
		counter.Exact(counter.SequentialOnly), counter.Approx(0.05), counter.Approx(0.3),
	}
	shards := 1
	if keyed {
		shards = 2 + rng.Intn(4)
	}
	c := streamCase{keyed: keyed, guarantees: make([]counter.Guarantee, shards), missing: rng.Intn(3) * rng.Intn(2)}
	for s := range c.guarantees {
		c.guarantees[s] = levels[rng.Intn(len(levels))]
	}
	if rng.Intn(4) == 0 {
		c.fc = FaultContext{Fired: rng.Intn(2) == 0, Wedged: rng.Intn(3)}
	}

	clients := 1 + rng.Intn(12)
	maxDur := int64(1 + rng.Intn(40))
	late := int64(rng.Intn(3)) * int64(rng.Intn(60)) // 0 on most runs: reports in end order
	keys := 1 + rng.Intn(10)
	migrateAt := n / (1 + rng.Intn(3))
	anomaly := 0.3 * rng.Float64() // share of operations handed a wrong value
	if rng.Intn(3) == 0 {
		// Values a permutation of the sequence, so the only anomalies are
		// the inversions late reports make and First names the first of them.
		anomaly, late = 0, 1+rng.Int63n(4*maxDur)
	}

	type op struct {
		keyedOp
		report int64
	}
	free := make([]int64, clients)
	ops := make([]op, n)
	for i := range ops {
		cl := rng.Intn(clients)
		start := free[cl] + rng.Int63n(3)
		end := start + rng.Int63n(maxDur+1)
		report := end + rng.Int63n(late+1)
		free[cl] = report
		key := rng.Intn(keys)
		shard, epoch := 0, 0
		if keyed {
			shard = key % max(shards-1, 1)
			if i >= migrateAt && key < 2 && shards > 1 {
				shard, epoch = shards-1, 1
			}
		}
		ops[i] = op{kv(i+1, shard, key, epoch, 0, start, end), report}
	}
	slices.SortStableFunc(ops, func(a, b op) int { return int(a.report - b.report) })

	// Values in completion order from each shard's sequence; an approximate
	// shard reports the count give or take its slack.
	next := make([]int, shards)
	for i := range ops {
		o := &ops[i]
		s := o.Shard
		v := next[s]
		next[s]++
		if g := c.guarantees[s]; g.Level == counter.Approximate {
			v += rng.Intn(2*int(g.Epsilon*float64(v))+3) - int(g.Epsilon*float64(v)) - 1
		}
		if rng.Float64() < anomaly {
			switch rng.Intn(6) {
			case 0: // handed out again
				v = max(v-1-rng.Intn(5), 0)
				next[s]--
			case 1: // a gap
				next[s] += 1 + rng.Intn(3)
			case 2: // a stray below zero
				v = -1 - rng.Intn(3)
			case 3: // a stray far above the run: kept in the set's map, or
				// reached by the window once enough values arrive
				v = 1<<16 + rng.Intn(1<<14)
			case 4: // a much larger value, inverting order with what follows
				v += 1 + rng.Intn(20)
			case 5: // a value from long ago
				v = rng.Intn(max(v, 0) + 1)
			}
		}
		o.Value = v
	}

	c.ops = make([]keyedOp, n)
	c.bound = make([]int64, n)
	minStart := int64(math.MaxInt64)
	for i := n - 1; i >= 0; i-- {
		c.ops[i] = ops[i].keyedOp
		c.bound[i] = min(minStart, ops[i].report)
		minStart = min(minStart, ops[i].Start)
	}
	return c
}

// stream observes the case's history, advancing at random points to random
// frontiers within the contract, and returns the reports.
func (c streamCase) stream(rng *rand.Rand) (Report, KeyedReport) {
	var s *Stream
	if c.keyed {
		s = NewKeyedStream(c.guarantees)
	} else {
		s = NewStream(c.guarantees[0])
	}
	every := 1 + rng.Intn(64)
	for i, op := range c.ops {
		s.Observe(op.TimedValue, op.Placement)
		if rng.Intn(every) == 0 {
			s.Advance(c.bound[i] - rng.Int63n(4)*rng.Int63n(2))
		}
	}
	if c.keyed {
		return Report{}, s.KeyedReport(nil, c.missing, c.fc)
	}
	return s.Report(c.missing, c.fc), KeyedReport{}
}

// history is the case as the Evaluate functions take it.
func (c streamCase) history() ([]TimedValue, []Placement) {
	vals := make([]TimedValue, len(c.ops))
	at := make([]Placement, len(c.ops))
	for i, op := range c.ops {
		vals[i], at[i] = op.TimedValue, op.Placement
	}
	return vals, at
}

// batch is the oracle's answer for the case.
func (c streamCase) batch() (Report, KeyedReport) {
	vals, at := c.history()
	if c.keyed {
		return Report{}, batchEvaluateKeyed(c.guarantees, nil, vals, at, c.missing, c.fc)
	}
	return batchEvaluateWithFaults(c.guarantees[0], vals, c.missing, c.fc), KeyedReport{}
}

// evaluate is the Evaluate functions' answer for the case.
func (c streamCase) evaluate() (Report, KeyedReport) {
	vals, at := c.history()
	if c.keyed {
		return Report{}, EvaluateKeyed(c.guarantees, nil, vals, at, c.missing, c.fc)
	}
	return EvaluateWithFaults(c.guarantees[0], vals, c.missing, c.fc), KeyedReport{}
}

// FuzzStreamMatchesBatch: whatever the history and however the frontier
// advances within its contract, the stream reports exactly what the batch
// evaluation of the whole history reports — every count, every First, the
// keyed shard and segment split and the summary. So do the Evaluate
// functions, which advance by themselves, also on a history where one
// operation ends before it starts.
func FuzzStreamMatchesBatch(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		f.Add(seed, uint16(seed*97%2000), seed%2 == 0)
	}
	f.Add(int64(7), uint16(0), true)
	f.Add(int64(8), uint16(1), false)
	f.Fuzz(func(t *testing.T, seed int64, size uint16, keyed bool) {
		rng := rand.New(rand.NewSource(seed))
		c := genStreamCase(rng, int(size%3000), keyed)
		gotRep, gotKeyed := c.stream(rng)
		wantRep, wantKeyed := c.batch()
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("report differs:\n got %+v\nwant %+v", gotRep, wantRep)
		}
		if !reflect.DeepEqual(gotKeyed, wantKeyed) {
			t.Fatalf("keyed report differs:\n got %+v\nwant %+v", gotKeyed, wantKeyed)
		}
		if len(c.ops) > 0 && rng.Intn(2) == 0 {
			op := &c.ops[rng.Intn(len(c.ops))]
			op.Start, op.End = op.End+1, op.Start
			wantRep, wantKeyed = c.batch()
		}
		if gotRep, gotKeyed = c.evaluate(); !reflect.DeepEqual(gotRep, wantRep) || !reflect.DeepEqual(gotKeyed, wantKeyed) {
			t.Fatalf("Evaluate differs:\n got %+v %+v\nwant %+v %+v", gotRep, gotKeyed, wantRep, wantKeyed)
		}
	})
}

// TestStreamMatchesBatchJudged: the generated histories are not too clean
// to judge by — over the seeds, every kind of anomaly the reports count
// shows up, on both the single and the keyed stream.
func TestStreamMatchesBatchJudged(t *testing.T) {
	var single, sum Report
	var keyDups, keyInv int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, keyed := range []bool{false, true} {
			c := genStreamCase(rng, 1500, keyed)
			gotRep, gotKeyed := c.stream(rng)
			wantRep, wantKeyed := c.batch()
			if !reflect.DeepEqual(gotRep, wantRep) || !reflect.DeepEqual(gotKeyed, wantKeyed) {
				t.Fatalf("seed %d keyed=%v: stream and batch differ:\n got %+v %+v\nwant %+v %+v",
					seed, keyed, gotRep, gotKeyed, wantRep, wantKeyed)
			}
			r := &single
			if keyed {
				r = &sum
				keyDups += wantKeyed.KeyDuplicates
				keyInv += wantKeyed.KeyOrderViolations
			}
			w := wantKeyed.Summary
			if !keyed {
				w = wantRep
			}
			r.Duplicates += w.Duplicates
			r.Gaps += w.Gaps
			r.OrderViolations += w.OrderViolations
			r.OutOfBound += w.OutOfBound
			r.Excused += w.Excused
		}
	}
	for name, r := range map[string]Report{"single": single, "keyed": sum} {
		if r.Duplicates == 0 || r.Gaps == 0 || r.OrderViolations == 0 || r.OutOfBound == 0 || r.Excused == 0 {
			t.Errorf("%s histories too clean to judge by: %+v", name, r)
		}
	}
	if keyDups == 0 || keyInv == 0 {
		t.Errorf("keyed histories too clean to judge by: %d key duplicates, %d key order violations", keyDups, keyInv)
	}
}

// TestStreamStateStaysBounded: on a long correct run advanced as the engine
// advances it, the stream holds a chunk of pending operations and a window
// of values spanning the run's concurrency — not the run.
func TestStreamStateStaysBounded(t *testing.T) {
	const clients = 8
	s := NewStream(counter.Exact(counter.Linearizable))
	for i := 0; i < 200_000; i++ {
		// Rounds of clients concurrent operations; values in end order.
		start := int64(i/clients) * 10
		s.Observe(TimedValue{Op: sim.OpID(i + 1), Value: i, Start: start, End: start + 7}, Placement{})
		if i%1024 == 1023 {
			s.Advance(start)
		}
		if len(s.pend) > 1024+clients || len(s.shards[0].seen.words) > 2 {
			t.Fatalf("after %d ops: %d pending, %d set words", i+1, len(s.pend), len(s.shards[0].seen.words))
		}
	}
	if rep := s.Report(0, FaultContext{}); rep.Violations != 0 || rep.Ops != 200_000 {
		t.Fatalf("clean run reported %+v", rep)
	}
}

// TestStreamPanicsBelowFrontier: an operation that starts, or ends, before
// the latest Advance breaks the frontier contract. The sweep has already
// passed its interval, so the stream refuses it rather than lose its checks.
func TestStreamPanicsBelowFrontier(t *testing.T) {
	for _, tc := range []struct {
		name string
		late TimedValue
		ok   bool
	}{
		{"at the frontier", TimedValue{Op: 3, Value: 2, Start: 10, End: 12}, true},
		{"starts below", TimedValue{Op: 3, Value: 2, Start: 9, End: 12}, false},
		{"ends below", TimedValue{Op: 3, Value: 2, Start: 11, End: 9}, false},
	} {
		s := NewStream(counter.Exact(counter.Linearizable))
		s.Observe(TimedValue{Op: 1, Value: 0, Start: 0, End: 4}, Placement{})
		s.Observe(TimedValue{Op: 2, Value: 1, Start: 10, End: 11}, Placement{})
		s.Advance(10)
		s.Advance(5) // a frontier never moves back
		func() {
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Errorf("%s: panic %v", tc.name, r)
				}
			}()
			s.Observe(tc.late, Placement{})
		}()
	}
}

// TestValueSetMatchesMap: the bitset with its low-water mark answers
// membership and gaps as a plain map does, for values in order, out of
// order, repeated, negative, and far beyond the window — including strays
// the window reaches later, once enough values make it worth growing.
func TestValueSetMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		draw func(rng *rand.Rand, i int) int
	}{
		{"in order", 5000, func(_ *rand.Rand, i int) int { return i }},
		{"jittered", 20000, func(rng *rand.Rand, i int) int { return i + rng.Intn(200) - 100 }},
		{"sparse segment", 20000, func(rng *rand.Rand, i int) int { return 16*i + rng.Intn(16) }},
		{"very sparse", 3000, func(rng *rand.Rand, i int) int { return 200*i + rng.Intn(200) }},
		{"repeats", 20000, func(rng *rand.Rand, i int) int { return rng.Intn(i/2 + 1) }},
		{"strays", 120000, func(rng *rand.Rand, i int) int {
			switch rng.Intn(50) {
			case 0:
				return -1 - rng.Intn(5)
			case 1:
				return 70000 + rng.Intn(60000)
			case 2:
				return 1 << 40
			}
			return i
		}},
	} {
		rng := rand.New(rand.NewSource(1))
		var s valueSet
		ref := map[int]bool{}
		for i := 0; i < tc.n; i++ {
			v := tc.draw(rng, i)
			if got, want := s.add(v), ref[v]; got != want {
				t.Fatalf("%s: add(%d) #%d reported dup=%v, want %v", tc.name, v, i, got, want)
			}
			ref[v] = true
		}
		for _, n := range []int{0, 1, 63, 64, 65, tc.n / 2, tc.n, tc.n + 777, 2 * tc.n} {
			count, first := s.gaps(n)
			wantCount, wantFirst := 0, -1
			for v := 0; v < n; v++ {
				if !ref[v] {
					if wantCount == 0 {
						wantFirst = v
					}
					wantCount++
				}
			}
			if count != wantCount || (count > 0 && first != wantFirst) {
				t.Fatalf("%s: gaps(%d) = %d from %d, want %d from %d", tc.name, n, count, first, wantCount, wantFirst)
			}
		}
	}
}

// TestStreamFirstInversionTieBreak: among inversions starting at the same
// tick, First names the one completed first — the batch's stable sort by
// start — even when both are resolved by one sweep, and when the tied starts
// are scattered through a chunk among later ones.
func TestStreamFirstInversionTieBreak(t *testing.T) {
	scattered := []TimedValue{{Op: 1, Value: 300, Start: 0, End: 10}}
	rng := rand.New(rand.NewSource(1))
	for i := range 300 {
		start := int64(50) // every other operation starts at the earliest tick
		if i%2 == 1 {
			start += 1 + rng.Int63n(100)
		}
		scattered = append(scattered, TimedValue{Op: sim.OpID(i + 2), Value: i, Start: start, End: start + 1 + rng.Int63n(20)})
	}
	for _, tc := range []struct {
		vals       []TimedValue
		inversions int
		first      string
	}{
		{[]TimedValue{
			{Op: 2, Value: 1, Start: 3, End: 4},
			{Op: 3, Value: 0, Start: 3, End: 5},
			{Op: 1, Value: 5, Start: 0, End: 1}, // reported late: it ended before both started
			{Op: 4, Value: 2, Start: 6, End: 7},
			{Op: 5, Value: 3, Start: 6, End: 8},
			{Op: 6, Value: 4, Start: 9, End: 9},
		}, 5, "op 2 got value 1 although an operation with value >= 5 completed before it started"},
		{scattered, 300, "op 2 got value 0 although an operation with value >= 300 completed before it started"},
	} {
		g := counter.Exact(counter.Linearizable)
		got, want := Evaluate(g, tc.vals, 0), batchEvaluateWithFaults(g, tc.vals, 0, FaultContext{})
		if got != want {
			t.Fatalf("stream %+v, batch %+v", got, want)
		}
		if got.OrderViolations != tc.inversions || got.First != tc.first {
			t.Fatalf("%d order violations, first %q", got.OrderViolations, got.First)
		}
	}
}

// TestEvaluateResolvesMalformedHistoryAtOnce: an operation that ends before
// it starts breaks the frontier contract, so Evaluate must not advance past
// it mid-history; the report still matches the batch's.
func TestEvaluateResolvesMalformedHistoryAtOnce(t *testing.T) {
	vals := seqHistory(3000)
	vals[500].Start, vals[500].End = 20000, 5000 // starts after op 1999 ended
	g := counter.Exact(counter.Linearizable)
	got, want := Evaluate(g, vals, 0), batchEvaluateWithFaults(g, vals, 0, FaultContext{})
	if got != want || got.OrderViolations != 1 {
		t.Fatalf("stream %+v, batch %+v", got, want)
	}
}
