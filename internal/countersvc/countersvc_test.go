package countersvc

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"distcount/internal/registry"
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
	s.OnComplete(func(c Completion) { doneKey = c.Key }, 0)
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

// TestOneShardLoadsCopyNothing: a one-shard service reads its loads
// straight from the shard counter into the caller's slices, so reading them
// costs no allocation beyond building the service.
func TestOneShardLoadsCopyNothing(t *testing.T) {
	cfg := Config{Keys: 1, N: 5, Algo: "central"}
	sent, recv := make([]int64, cfg.N+1), make([]int64, cfg.N+1)
	build := testing.AllocsPerRun(10, func() { mustService(t, cfg) })
	read := testing.AllocsPerRun(10, func() { mustService(t, cfg).Loads(sent, recv) })
	if read > build {
		t.Fatalf("building costs %v allocs, building and reading the loads %v", build, read)
	}
}

// TestOneShardLoadsSpanTheService: a shard may span more processors than
// its service — the ctree shard rounds 5 up to 8 — and the service still
// reports its own 5, equal to the shard's first entries; a sampler that
// passes its previous result back allocates nothing.
func TestOneShardLoadsSpanTheService(t *testing.T) {
	for _, algo := range []string{"central", "ctree"} {
		cfg := Config{Keys: 1, N: 5, Algo: algo}
		s := mustService(t, cfg)
		for p := 1; p <= cfg.N; p++ {
			s.Start(s.Now(), 0, sim.ProcID(p))
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		sent, recv := s.Loads(nil, nil)
		shardSent, shardRecv := s.Counter(0).Loads(nil, nil)
		if len(sent) != cfg.N+1 || len(recv) != cfg.N+1 {
			t.Fatalf("%s: loads span %d/%d entries, want %d", algo, len(sent), len(recv), cfg.N+1)
		}
		if !slices.Equal(sent, shardSent[:cfg.N+1]) || !slices.Equal(recv, shardRecv[:cfg.N+1]) {
			t.Fatalf("%s: service loads %v/%v, shard's %v/%v", algo, sent, recv, shardSent, shardRecv)
		}
		if a := testing.AllocsPerRun(10, func() { sent, recv = s.Loads(sent, recv) }); a != 0 {
			t.Fatalf("%s: re-reading the loads into the previous result allocates %v", algo, a)
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
		s.OnComplete(func(c Completion) {
			order = append(order, c.Shard*1000+c.Key)
		}, 0)
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

// TestCompletionsStampOnServiceClock: on rt every shard runtime counts from
// its own start, later than the first shard's, so its own stamps run behind
// the service's clock. The service moves them onto it: an operation started
// at a Now reading and handed over before the next one is stamped between
// the two, on every shard. The streaming verifier's frontier, read on the
// service clock, depends on it.
func TestCompletionsStampOnServiceClock(t *testing.T) {
	s := mustService(t, Config{Keys: 32, N: 2, Shards: 4, Algo: "central",
		Registry: registry.Config{Backend: "rt", Window: registry.DefaultWindow}})
	defer s.Close()
	var got []Completion
	s.OnComplete(func(c Completion) { got = append(got, c) }, time.Minute)
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
			for got = got[:0]; len(got) == 0; {
				if ok, err := s.Await(-1); !ok || err != nil {
					t.Fatalf("shard %d: no completion (%v)", shard, err)
				}
			}
			after := s.Now()
			c := got[0]
			if len(got) != 1 || c.Shard != shard || c.Key != key {
				t.Fatalf("shard %d key %d: completions %+v", shard, key, got)
			}
			if !(before <= c.Start && c.Start <= c.End && c.End <= after) {
				t.Fatalf("shard %d: op stamped [%d, %d], outside the service clock's [%d, %d]",
					shard, c.Start, c.End, before, after)
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
	s.OnComplete(func(c Completion) {
		busyUntil[c.Initiator] = false
		// The reported epoch is the one the op RAN at: 0 on a home
		// shard, 1 on the hot shard — even for the drain-completing op
		// whose own completion triggers the cutover.
		if want := 0; c.Shard == s.HotShard() {
			if c.Epoch != 1 {
				t.Errorf("op on hot shard reported epoch %d, want 1", c.Epoch)
			}
		} else if c.Epoch != want {
			t.Errorf("op on home shard %d reported epoch %d, want 0", c.Shard, c.Epoch)
		}
	}, 0)
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

// TestNewFailureClosesBuiltShards: when a later shard cannot be built, New
// closes the rt runtimes of the shards it already built, so a failed
// construction leaves no worker or clock goroutine behind.
func TestNewFailureClosesBuiltShards(t *testing.T) {
	baseline := runtime.NumGoroutine()
	_, err := New(Config{Keys: 4, N: 8, Shards: 2, ShardAlgos: []string{"central", "nosuch"},
		Registry: registry.Config{Backend: "rt", Window: registry.DefaultWindow}})
	if err == nil {
		t.Fatal("New built a shard of an unknown algorithm")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed New, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
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

// silentWall binds a handler over a fresh central runtime, wrapped as the
// one-shard service a single run drives, on which nothing ever starts unless
// the test starts it, so the only other completions are the ones a test puts
// into its sink. done counts the completions the handler is handed.
func silentWall(t *testing.T, stall, wedgeIdle time.Duration, plan *sim.FaultPlan) (s *Service, done *int) {
	c, err := registry.NewWith("central", 2, registry.Config{Backend: "rt", Window: registry.DefaultWindow, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	s, err = Single(c)
	if err != nil {
		t.Fatal(err)
	}
	s.stall = stall
	done = new(int)
	s.OnComplete(func(Completion) { *done++ }, wedgeIdle)
	t.Cleanup(s.Close)
	return s, done
}

// TestAwaitWallLeavesTimerStopped: every way out of the rt wait — a
// completion already there, one arriving while the driver is parked, an
// arrival coming due inside and beyond the spin horizon, the stall timeout —
// returns what Await's contract says, never before the time it was asked to
// wait out, and leaves the sink's reusable arrival timer stopped: a fire
// left behind would cut the next arrival wait short.
func TestAwaitWallLeavesTimerStopped(t *testing.T) {
	const far = time.Hour // a stall timeout that never expires
	for _, tc := range []struct {
		name       string
		ready      int           // completions already in the sink on entry
		sendAfter  time.Duration // or one arrives this much later
		until      time.Duration // the pending arrival; negative = none
		stall      time.Duration
		want       bool
		handled    int
		atLeastFor time.Duration
	}{
		{name: "completion ready", ready: 1, until: -1, stall: far, want: true, handled: 1},
		{name: "completion during sleep", sendAfter: 5 * time.Millisecond, until: -1, stall: far, want: true, handled: 1, atLeastFor: 5 * time.Millisecond},
		{name: "completion ready, arrival overdue", ready: 3, until: 0, stall: far, want: true, handled: 3},
		{name: "arrival overdue", until: 0, stall: far, want: true},
		{name: "arrival inside the horizon", until: 300 * time.Microsecond, stall: far, want: true, atLeastFor: 300 * time.Microsecond},
		{name: "arrival beyond the horizon", until: 4 * time.Millisecond, stall: far, want: true, atLeastFor: 4 * time.Millisecond},
		{name: "stall", until: -1, stall: 3 * time.Millisecond, want: false, atLeastFor: 3 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, handled := silentWall(t, tc.stall, far, nil)
			for i := 0; i < tc.ready; i++ {
				s.sink.Put(0, sim.OpDone{End: s.Now()})
			}
			if tc.sendAfter > 0 {
				go func() {
					time.Sleep(tc.sendAfter)
					s.sink.Put(0, sim.OpDone{End: s.Now()})
				}()
			}
			until := int64(tc.until)
			if until >= 0 {
				until += s.Now()
			}
			t0 := time.Now()
			got, err := s.Await(until)
			if elapsed := time.Since(t0); err != nil || got != tc.want || *handled != tc.handled || elapsed < tc.atLeastFor {
				t.Fatalf("Await = %v, %v after %v with %d completions handled, want %v after at least %v with %d",
					got, err, elapsed, *handled, tc.want, tc.atLeastFor, tc.handled)
			}
			const next = 2 * time.Millisecond
			t0 = time.Now()
			if got, _ := s.Await(s.Now() + int64(next)); !got || time.Since(t0) < next || *handled != tc.handled {
				t.Fatalf("the next arrival wait returned %v after %v with %d handled, want true after %v with %d",
					got, time.Since(t0), *handled, next, tc.handled)
			}
		})
	}
}

// TestWallStallWatchdog: stall detection lives in the sink's watchdog, off
// the per-completion path, and keeps Await's timeouts. A silent runtime is
// reported no earlier than the stall timeout and within a small slop of it,
// measured from the driver's last sign of life; completions arriving
// steadily, each well inside the timeout, never trip it however long they go
// on; and a fault firing mid-run shortens the timeout from the stall timeout
// to wedgeIdle.
func TestWallStallWatchdog(t *testing.T) {
	const slop = 250 * time.Millisecond // a loaded CI box delays a timer callback
	// awaitStall drives Await until it reports a stall and checks when: the
	// last sign of life fell between lifeFrom and lifeTo.
	awaitStall := func(t *testing.T, s *Service, lifeFrom, lifeTo time.Time, timeout time.Duration) {
		t.Helper()
		for {
			ok, err := s.Await(-1)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if early, late := time.Since(lifeFrom), time.Since(lifeTo); early < timeout || late > timeout+slop {
			t.Fatalf("stall reported %v–%v after the last sign of life, want %v and at most %v more", late, early, timeout, slop)
		}
	}

	t.Run("silent", func(t *testing.T) {
		const stall = 40 * time.Millisecond
		before := time.Now()
		s, _ := silentWall(t, stall, time.Hour, nil)
		awaitStall(t, s, before, time.Now(), stall)
	})

	t.Run("steady completions", func(t *testing.T) {
		const stall, beats, gap = 100 * time.Millisecond, 60, 5 * time.Millisecond
		s, handled := silentWall(t, stall, time.Hour, nil)
		var widest atomic.Int64 // the longest the producer went between two completions
		last := make(chan [2]time.Time, 1)
		go func() {
			before := time.Now()
			for i := 0; i < beats; i++ {
				time.Sleep(gap)
				widest.Store(max(widest.Load(), int64(time.Since(before))))
				before = time.Now()
				s.sink.Put(0, sim.OpDone{End: s.Now()})
			}
			last <- [2]time.Time{before, time.Now()}
		}()
		// beats × gap is several stall timeouts: only the silence after the
		// last completion may be reported.
		for *handled < beats {
			if ok, _ := s.Await(-1); !ok {
				early := *handled
				<-last
				if quiet := time.Duration(widest.Load()); quiet < stall/2 {
					t.Fatalf("stall reported after %d of %d completions at most %v apart", early, beats, quiet)
				}
				t.Skipf("the machine held the producer itself up for %v", time.Duration(widest.Load()))
			}
		}
		l := <-last
		awaitStall(t, s, l[0], l[1], stall)
	})

	t.Run("fault switches to WedgeIdle", func(t *testing.T) {
		const wedgeIdle = 40 * time.Millisecond
		// Processor 2's first send — its request to the holder — is lost.
		s, handled := silentWall(t, time.Hour, wedgeIdle, &sim.FaultPlan{DropNth: []sim.NthRule{{Proc: 2, Every: 1}}})
		before := time.Now()
		s.Start(s.Now(), 0, 1) // the holder's own increment: no message, completes
		if ok, _ := s.Await(-1); !ok || *handled != 1 {
			t.Fatalf("Await = %v with %d handled before any fault", ok, *handled)
		}
		s.Start(s.Now(), 0, 2)
		for st, _ := s.FaultStats(); !st.Any(); st, _ = s.FaultStats() {
			runtime.Gosched()
		}
		awaitStall(t, s, before, time.Now(), wedgeIdle)
		if *handled != 1 {
			t.Fatalf("%d completions, want the wedged operation to stay open", *handled)
		}
	})
}
