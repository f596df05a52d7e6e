package countersvc

import (
	"fmt"
	"slices"
	"testing"

	"distcount/internal/registry"
	"distcount/internal/sim"
)

// step delivers the one globally earliest queued event; ok is false at
// global quiescence. It is the single-event reference the test below holds
// Await to.
func (s *Service) step() (bool, error) {
	if len(s.nets) == 1 {
		return s.nets[0].Step()
	}
	shard, at := s.earliest()
	if shard < 0 {
		return false, nil
	}
	return true, s.stepShard(shard, at)
}

// awaitRef is the reference Await on the simulator: step while the earliest
// queued event is before until (every event when until is negative).
func (s *Service) awaitRef(until int64) (bool, error) {
	_, had := s.nextAt()
	for {
		if at, ok := s.nextAt(); !ok || (until >= 0 && at >= until) {
			return had, nil
		}
		if _, err := s.step(); err != nil {
			return had, err
		}
	}
}

// traceEntry is one thing a driven service did, in the order it did it: a
// delivery on a shard, or a completion, with the service clock at that
// moment.
type traceEntry struct {
	shard int
	dlv   sim.Delivery
	done  Completion
	now   int64
}

// drivenService is a service under a deterministic driver that acts only at
// the points Await hands control back: every completion starts the
// completing initiator's next operation when its key is open, and each
// arrival of the limit schedule starts one more if its initiator is idle.
type drivenService struct {
	s       *Service
	trace   []traceEntry
	busy    []bool
	started int
	maxOps  int
	hot     int // the key most operations go to
}

func newDriven(t *testing.T, cfg Config, maxOps int) *drivenService {
	d := &drivenService{s: mustService(t, cfg), busy: make([]bool, cfg.N+1), maxOps: maxOps}
	for shard := range d.s.Shards() {
		d.s.Counter(shard).OnDeliver(func(dl sim.Delivery) {
			d.trace = append(d.trace, traceEntry{shard: shard, dlv: dl, now: d.s.Now()})
		})
	}
	d.s.OnComplete(func(c Completion) {
		d.trace = append(d.trace, traceEntry{shard: -1, done: c, now: d.s.Now()})
		d.busy[c.Initiator] = false
		d.start(d.s.Now(), c.Initiator)
	}, 0)
	return d
}

// start begins p's next operation at at, on the hot key three times in four,
// unless p is busy, the key is frozen or the run has started all its
// operations.
func (d *drivenService) start(at int64, p sim.ProcID) {
	key := d.hot
	if d.started%4 == 3 {
		key = d.started % d.s.Keys()
	}
	if d.busy[p] || d.started >= d.maxOps {
		return
	}
	if _, open := d.s.RouteFor(key); !open {
		return
	}
	d.busy[p] = true
	d.started++
	d.s.Start(at, key, p)
}

// TestAwaitRunsToDecisionPoint holds the simulator's Await(until) to the
// reference that steps one event at a time while the earliest is before
// until: through a schedule of limits — ties exactly at the next event's
// time, limits a few ticks on, far ones past the ring window, and -1 — both
// must produce the identical stream of deliveries and completions with
// identical clocks, leave nothing queued before until, and return false
// only on an empty queue. One service is a single shard with merge windows
// wider than the event ring (its timers land in the far heap); the other
// has four central shards, uniform latencies up to 90 ticks and a hot key
// that migrates to a combining shard mid-run.
//
// Mutations of a scratch copy it fails on: delivering the event at until,
// stopping after one event (an event is left before until), returning true
// on an empty queue, a merged loop that runs the chosen shard's network to
// until instead of one event (the trace diverges once a completion starts
// an operation on another shard), and a merged loop that ignores until.
// internal/sim's TestEventQueueMatchesHeapReference covers the limited pop
// over the far heap, and TestAdoptKeepsOpOpenAcrossCarrier and
// TestWordSendAs a SendAs that charges the delivering operation's record
// instead of the token's.
func TestAwaitRunsToDecisionPoint(t *testing.T) {
	spread := sim.WithLatency(sim.UniformLatency{Min: 1, Max: 90})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"one-shard", Config{Keys: 4, N: 8, Algo: "combining",
			Registry: registry.Config{Window: 80, Service: func(p sim.ProcID) int64 { return int64(p % 3) }}}},
		{"four-shards-migrating", Config{Keys: 16, N: 8, Shards: 4, Algo: "central",
			Migration: &Migration{To: "combining", HotShare: 0.25, CheckEvery: 32},
			Registry:  registry.Config{Window: 16, SimOpts: []sim.Option{spread}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const ops = 600
			got, ref := newDriven(t, tc.cfg, ops), newDriven(t, tc.cfg, ops)
			for p := sim.ProcID(1); p <= 4; p++ {
				got.start(0, p)
				ref.start(0, p)
			}
			for round := 0; ; round++ {
				next, queued := ref.s.nextAt()
				var until int64
				switch {
				case !queued && ref.started >= ops:
					until = -2 // done: one last call on the empty queue
				case !queued || round%9 == 8:
					until = -1
				case round%3 == 0:
					until = next // a tie: the event at until stays queued
				case round%3 == 1:
					until = next + int64(round%5)
				default:
					until = ref.s.Now() + 70 + int64(round%40)
				}
				limit := max(until, -1)
				wantOK, err := ref.s.awaitRef(limit)
				if err != nil {
					t.Fatal(err)
				}
				ok, err := got.s.Await(limit)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("round %d, until %d", round, limit)
				if ok != wantOK {
					t.Fatalf("%s: Await = %v, reference %v (queued before: %v)", where, ok, wantOK, queued)
				}
				if at, left := got.s.nextAt(); left && (limit < 0 || at < limit) {
					t.Fatalf("%s: an event at %d is still queued before until", where, at)
				}
				if !slices.Equal(got.trace, ref.trace) {
					i := 0
					for i < min(len(got.trace), len(ref.trace)) && got.trace[i] == ref.trace[i] {
						i++
					}
					t.Fatalf("%s: traces diverge at entry %d of %d/%d: got %+v, reference %+v", where, i,
						len(got.trace), len(ref.trace), entry(got.trace, i), entry(ref.trace, i))
				}
				if got.s.Now() != ref.s.Now() {
					t.Fatalf("%s: clock %d, reference %d", where, got.s.Now(), ref.s.Now())
				}
				if until == -2 {
					break
				}
				// The arrival at until: one more operation if its initiator
				// is idle.
				p := sim.ProcID(1 + round%tc.cfg.N)
				at := max(until, got.s.Now())
				got.start(at, p)
				ref.start(at, p)
			}
			if got.started != ops {
				t.Fatalf("started %d operations, want %d", got.started, ops)
			}
			if tc.cfg.Migration != nil && len(got.s.Migrations()) != 1 {
				t.Fatalf("%d migrations, want 1", len(got.s.Migrations()))
			}
		})
	}
}

// entry returns trace entry i, or the zero entry past the end.
func entry(tr []traceEntry, i int) traceEntry {
	if i < len(tr) {
		return tr[i]
	}
	return traceEntry{}
}
