package countersvc

import (
	"testing"
	"time"

	"distcount/internal/registry"
	"distcount/internal/rt"
	"distcount/internal/sim"
)

func mustService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHomeShardDeterministic: routing is a pure function of (key, Shards) —
// identical across service instances, in range, and reasonably balanced
// (the SplitMix64 finalizer is platform-independent).
func TestHomeShardDeterministic(t *testing.T) {
	cfg := Config{Keys: 256, N: 4, Shards: 4, Algo: "central"}
	a, b := mustService(t, cfg), mustService(t, cfg)
	counts := make([]int, 4)
	for k := 0; k < cfg.Keys; k++ {
		sa, sb := a.HomeShard(k), b.HomeShard(k)
		if sa != sb {
			t.Fatalf("key %d routes to %d and %d on identical configs", k, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("key %d routes to shard %d, out of [0,4)", k, sa)
		}
		if again := a.HomeShard(k); again != sa {
			t.Fatalf("key %d routing unstable: %d then %d", k, sa, again)
		}
		counts[sa]++
	}
	for shard, c := range counts {
		if c < cfg.Keys/8 {
			t.Fatalf("shard %d serves only %d of %d keys — hash badly unbalanced: %v", shard, c, cfg.Keys, counts)
		}
	}
}

// TestShardValueSequences: each shard hands out its own 0,1,2,... ticket
// sequence to the ops of all keys routed to it.
func TestShardValueSequences(t *testing.T) {
	s := mustService(t, Config{Keys: 8, N: 4, Shards: 2, Algo: "central"})
	next := make([]int, s.Shards())
	doneKey := -1
	s.OnOpDone(func(_, key, _ int, _ *sim.OpStats) { doneKey = key })
	for i := 0; i < 32; i++ {
		key := i % s.Keys()
		shard, id := s.Start(s.Now(), key, sim.ProcID(1+i%s.N()))
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		v, ok := s.Counter(shard).OpValue(id)
		if !ok {
			t.Fatalf("op %d on shard %d has no value", id, shard)
		}
		if v != next[shard] {
			t.Fatalf("shard %d handed out %d, want %d", shard, v, next[shard])
		}
		next[shard]++
		if doneKey != key {
			t.Fatalf("op %d on shard %d completed under key %d, want %d", id, shard, doneKey, key)
		}
	}
	for k := 0; k < s.Keys(); k++ {
		if got := s.KeyOps(k); got != 4 {
			t.Fatalf("key %d completed %d ops, want 4", k, got)
		}
	}
}

// TestMergedLoopDeterministic: the same start schedule stepped through the
// merged event loop twice yields the identical completion order.
func TestMergedLoopDeterministic(t *testing.T) {
	runOnce := func() []int {
		s := mustService(t, Config{Keys: 16, N: 8, Shards: 3, Algo: "central",
			Registry: registry.Config{Window: registry.DefaultWindow}})
		var order []int
		s.OnOpDone(func(shard, key, epoch int, st *sim.OpStats) {
			order = append(order, shard*1000+key)
		})
		for round := 0; round < 4; round++ {
			for p := 1; p <= 8; p++ {
				key := (round*8 + p) % 16
				if shard, _ := s.Start(s.Now(), key, sim.ProcID(p)); shard < 0 {
					t.Fatal("bad shard")
				}
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return order
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) || len(a) != 32 {
		t.Fatalf("completion counts differ: %d vs %d (want 32)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestDeliverToStampsOnServiceClock: on rt every shard runtime counts from
// its own start, later than the first shard's, so its own stamps run behind
// the service's clock. DeliverTo moves them onto it: an operation started
// after a Now reading and taken out of the sink before the next one is
// stamped between the two, on every shard. The streaming verifier's
// frontier, read on the service clock, depends on it.
func TestDeliverToStampsOnServiceClock(t *testing.T) {
	s := mustService(t, Config{Keys: 32, N: 2, Shards: 4, Algo: "central",
		Registry: registry.Config{Backend: "rt", Window: registry.DefaultWindow}})
	defer s.Close()
	sink := rt.NewSink(s.Now, time.Minute)
	defer sink.Close()
	s.DeliverTo(sink)
	for shard := range s.Shards() {
		key := -1
		for k := range s.Keys() {
			if s.HomeShard(k) == shard {
				key = k
				break
			}
		}
		if key < 0 {
			t.Fatalf("no key homes on shard %d", shard)
		}
		for range 20 {
			before := s.Now()
			s.Start(before, key, 1)
			var got []rt.Completion
			for len(got) == 0 {
				if !sink.Await(-1, func(c rt.Completion) { got = append(got, c) }) {
					t.Fatalf("shard %d: no completion", shard)
				}
			}
			after := s.Now()
			d := got[0]
			s.CompleteRT(d)
			if len(got) != 1 || d.Shard != shard {
				t.Fatalf("shard %d: completions %+v", shard, got)
			}
			if !(before <= d.StartNs && d.StartNs <= d.DoneNs && d.DoneNs <= after) {
				t.Fatalf("shard %d: op stamped [%d, %d], outside the service clock's [%d, %d]",
					shard, d.StartNs, d.DoneNs, before, after)
			}
		}
	}
}

// TestMigrationDrain: hotspot detection freezes the hot key, in-flight ops
// drain to zero before cutover, the epoch bumps, and post-cutover starts
// route to the dedicated hot shard.
func TestMigrationDrain(t *testing.T) {
	s := mustService(t, Config{
		Keys: 8, N: 8, Shards: 2, Algo: "central",
		Registry:  registry.Config{Window: registry.DefaultWindow},
		Migration: &Migration{To: "combining", CheckEvery: 16, HotShare: 0.5},
	})
	if s.HotShard() != 2 {
		t.Fatalf("hot shard = %d, want 2", s.HotShard())
	}
	const hotKey = 3
	var cutovers []MigrationEvent
	s.OnMigrate(func(ev MigrationEvent) {
		cutovers = append(cutovers, ev)
		if f := s.InFlight(ev.Key); f != 0 {
			t.Fatalf("cutover of key %d with %d ops in flight — drain protocol broken", ev.Key, f)
		}
	})
	home, _ := s.RouteFor(hotKey)
	if home == s.HotShard() {
		t.Fatalf("hot key starts on the hot shard")
	}
	// Keep every processor busy on the hot key so the scan window fills
	// while ops are genuinely concurrent; respect the freeze when it lands.
	busyUntil := make(map[sim.ProcID]bool)
	s.OnOpDone(func(shard, key, epoch int, st *sim.OpStats) {
		busyUntil[st.Initiator] = false
		// The reported epoch is the one the op RAN at: 0 on a home
		// shard, 1 on the hot shard — even for the drain-completing op
		// whose own completion triggers the cutover.
		if want := 0; shard == s.HotShard() {
			if epoch != 1 {
				t.Errorf("op on hot shard reported epoch %d, want 1", epoch)
			}
		} else if epoch != want {
			t.Errorf("op on home shard %d reported epoch %d, want 0", shard, epoch)
		}
	})
	started := 0
	for started < 200 {
		if _, open := s.RouteFor(hotKey); open {
			idle := sim.ProcID(0)
			for p := sim.ProcID(1); p <= 8; p++ {
				if !busyUntil[p] {
					idle = p
					break
				}
			}
			if idle != 0 {
				s.Start(s.Now(), hotKey, idle)
				busyUntil[idle] = true
				started++
				continue
			}
		}
		ok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok && len(cutovers) > 0 {
			break
		}
		if !ok {
			t.Fatal("quiescent before migration triggered")
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cutovers) != 1 {
		t.Fatalf("saw %d cutovers, want 1", len(cutovers))
	}
	ev := cutovers[0]
	if ev.Key != hotKey || ev.From != home || ev.To != s.HotShard() {
		t.Fatalf("cutover %+v, want key %d from %d to %d", ev, hotKey, home, s.HotShard())
	}
	if e := s.Epoch(hotKey); e != 1 {
		t.Fatalf("epoch = %d after one migration, want 1", e)
	}
	if shard, open := s.RouteFor(hotKey); !open || shard != s.HotShard() {
		t.Fatalf("post-cutover route = (%d, open=%v), want (%d, true)", shard, open, s.HotShard())
	}
	shard, id := s.Start(s.Now(), hotKey, 1)
	if shard != s.HotShard() {
		t.Fatalf("post-cutover start routed to %d, want hot shard %d", shard, s.HotShard())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Counter(shard).OpValue(id); !ok {
		t.Fatal("post-cutover op did not complete on the hot shard")
	}
	if got := len(s.Migrations()); got != 1 {
		t.Fatalf("Migrations() has %d events, want 1", got)
	}
}

// TestMaxMovesRespected: with the default budget of one move, a second hot
// key never migrates.
func TestMaxMovesRespected(t *testing.T) {
	s := mustService(t, Config{
		Keys: 4, N: 4, Shards: 1, Algo: "central",
		Migration: &Migration{To: "combining", CheckEvery: 8, HotShare: 0.4},
	})
	drive := func(key, ops int) {
		for i := 0; i < ops; i++ {
			s.Start(s.Now(), key, sim.ProcID(1+i%4))
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	drive(0, 40)
	if len(s.Migrations()) != 1 {
		t.Fatalf("first hot key: %d migrations, want 1", len(s.Migrations()))
	}
	drive(1, 40)
	if len(s.Migrations()) != 1 {
		t.Fatalf("budget exceeded: %d migrations, want 1", len(s.Migrations()))
	}
	if shard, _ := s.RouteFor(1); shard == s.HotShard() {
		t.Fatal("second key migrated despite exhausted budget")
	}
}

// TestBatchingAmortizesMessages: concurrent increments for different keys
// sharing a window-sensitive shard merge inside its combining window, so
// total messages fall well below the window-closed (sequential-regime)
// cost of the same schedule — the cross-key amortization the service
// layer's shard abstraction provides.
func TestBatchingAmortizesMessages(t *testing.T) {
	msgs := func(window int64) int64 {
		s := mustService(t, Config{Keys: 8, N: 8, Shards: 1, Algo: "combining",
			Registry: registry.Config{Window: window}})
		for round := 0; round < 10; round++ {
			at := s.Now()
			for p := 1; p <= 8; p++ {
				s.Start(at, (p-1)%8, sim.ProcID(p))
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return s.MessagesTotal()
	}
	open, closed := msgs(registry.DefaultWindow), msgs(0)
	if open*10 >= closed*9 {
		t.Fatalf("window open used %d messages vs %d closed — no cross-key amortization", open, closed)
	}
}
