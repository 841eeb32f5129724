package des

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clocksync/internal/simtime"
)

// TestShardedSerialFallback: zero or negative lookahead leaves no safe
// parallel window, so the constructor must collapse to one shard (the
// degenerate serial mode for zero-delay links). Ditto shard counts < 1.
func TestShardedSerialFallback(t *testing.T) {
	for _, tc := range []struct {
		shards    int
		lookahead simtime.Duration
	}{
		{8, 0},
		{8, -1 * simtime.Millisecond},
		{0, simtime.Millisecond},
		{-3, simtime.Millisecond},
	} {
		ps := NewSharded(1, tc.shards, tc.lookahead)
		if ps.Shards() != 1 {
			t.Errorf("NewSharded(shards=%d, lookahead=%v): got %d shards, want 1",
				tc.shards, tc.lookahead, ps.Shards())
		}
	}
	if ps := NewSharded(1, 4, simtime.Millisecond); ps.Shards() != 4 {
		t.Errorf("NewSharded(4, 1ms) collapsed to %d shards", ps.Shards())
	}
}

// TestShardedWindowBoundary: an event scheduled exactly at the lookahead
// horizon tmin+L must NOT execute in the window [tmin, tmin+L) — it belongs
// to the next window, after the barrier has merged cross-shard deliveries
// that may land at exactly that instant.
func TestShardedWindowBoundary(t *testing.T) {
	const L = 10 * simtime.Millisecond
	ps := NewSharded(7, 2, L)

	var order []string
	ps.Shard(0).At(0.000, func() { order = append(order, "A@0") })
	// B sits exactly at 0 + L: the first window is [0, 0.010) and must
	// exclude it.
	ps.Shard(1).At(simtime.Time(L), func() { order = append(order, "B@L") })

	var boundaryWindows []simtime.Time
	ps.OnBarrier(func(w simtime.Time) { boundaryWindows = append(boundaryWindows, w) })

	ps.RunUntil(1)

	if len(order) != 2 || order[0] != "A@0" || order[1] != "B@L" {
		t.Fatalf("execution order = %v, want [A@0 B@L]", order)
	}
	// The first barrier must have fired at exactly w = L, before B ran.
	if len(boundaryWindows) == 0 || boundaryWindows[0] != simtime.Time(L) {
		t.Fatalf("first window bound = %v, want %v", boundaryWindows, simtime.Time(L))
	}
}

// TestShardedCrossShardOrdering: deliveries merged at a barrier into another
// shard must interleave in timestamp order with that shard's own events.
func TestShardedCrossShardOrdering(t *testing.T) {
	const L = 10 * simtime.Millisecond
	ps := NewSharded(3, 2, L)

	var mu sync.Mutex
	var order []string
	log := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}

	// Shard 1's own events at t=0.012 and t=0.030.
	ps.Shard(1).At(0.012, func() { log("own@12ms") })
	ps.Shard(1).At(0.030, func() { log("own@30ms") })

	// Shard 0 "sends" two messages at t=0: the barrier hook plays the role
	// of the message layer, merging them into shard 1 at t=0.015 and
	// t=0.025 (both ≥ L after the send — conservative deliveries).
	delivered := false
	ps.Shard(0).At(0, func() { log("send@0") })
	ps.OnBarrier(func(w simtime.Time) {
		if !delivered && w > 0 {
			delivered = true
			ps.Shard(1).At(0.015, func() { log("x@15ms") })
			ps.Shard(1).At(0.025, func() { log("x@25ms") })
		}
	})

	ps.RunUntil(1)

	want := []string{"send@0", "own@12ms", "x@15ms", "x@25ms", "own@30ms"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestShardedGlobalFirst: at an exact time tie the global event runs before
// shard events at that instant, and it observes all shard clocks advanced to
// its own instant.
func TestShardedGlobalFirst(t *testing.T) {
	const L = 10 * simtime.Millisecond
	ps := NewSharded(5, 2, L)

	var order []string
	ps.Global().At(0.5, func() {
		order = append(order, "global")
		for i := 0; i < ps.Shards(); i++ {
			if now := ps.Shard(i).Now(); now != 0.5 {
				t.Errorf("shard %d clock at global event = %v, want 0.5", i, now)
			}
		}
	})
	ps.Shard(0).At(0.5, func() { order = append(order, "shard") })

	ps.RunUntil(1)

	if len(order) != 2 || order[0] != "global" || order[1] != "shard" {
		t.Fatalf("order = %v, want [global shard]", order)
	}
	// Horizon-inclusive semantics: all clocks land on the horizon.
	if ps.Now() != 1 || ps.Shard(0).Now() != 1 || ps.Shard(1).Now() != 1 {
		t.Fatalf("clocks after RunUntil(1): global=%v s0=%v s1=%v",
			ps.Now(), ps.Shard(0).Now(), ps.Shard(1).Now())
	}
}

// TestOneShardIsOneQueue: a one-shard simulator keeps one queue, both its
// shard and its global queue, so same-instant events fire in scheduling order
// whichever handle scheduled them, and Fired counts each once. OneShard
// wraps a Sim the caller holds, the same engine on every call.
func TestOneShardIsOneQueue(t *testing.T) {
	sim := New(1)
	if OneShard(sim) != OneShard(sim) || OneShard(sim).Global() != sim {
		t.Fatal("OneShard(sim) is not one engine whose queue is sim")
	}
	for _, ps := range []*ShardedSim{NewSharded(1, 1, simtime.Millisecond), OneShard(sim)} {
		if ps.Shards() != 1 || ps.Global() != ps.Shard(0) {
			t.Fatalf("one-shard simulator has %d shards and a separate global queue", ps.Shards())
		}
		var order []string
		ps.Shard(0).At(0.5, func() { order = append(order, "shard") })
		ps.Global().At(0.5, func() { order = append(order, "global") })
		ps.RunUntil(1)
		if len(order) != 2 || order[0] != "shard" || order[1] != "global" {
			t.Errorf("order = %v, want [shard global]: scheduling order", order)
		}
		if ps.Fired() != 2 || ps.Now() != 1 {
			t.Errorf("Fired %d at %v, want 2 at 1", ps.Fired(), ps.Now())
		}
		ps.Reset(2)
		if ps.Fired() != 0 || ps.Now() != 0 || ps.Global().Seed() != 2 {
			t.Errorf("after Reset(2): Fired %d at %v, seed %d", ps.Fired(), ps.Now(), ps.Global().Seed())
		}
	}
}

// TestShardedReset: Reset rewinds clocks, clears barrier hooks, and replays
// identically for the same seed.
func TestShardedReset(t *testing.T) {
	run := func(ps *ShardedSim) (fired uint64) {
		for i := 0; i < ps.Shards(); i++ {
			sh := ps.Shard(i)
			sh.At(0.001, func() {})
			sh.After(20*simtime.Millisecond, func() {})
		}
		ps.Global().At(0.5, func() {})
		ps.RunUntil(1)
		return ps.Fired()
	}

	ps := NewSharded(11, 4, simtime.Millisecond)
	hookRuns := 0
	ps.OnBarrier(func(simtime.Time) { hookRuns++ })
	first := run(ps)
	if hookRuns == 0 {
		t.Fatal("barrier hook never ran")
	}

	ps.Reset(11)
	if ps.Now() != 0 {
		t.Fatalf("Now after Reset = %v, want 0", ps.Now())
	}
	prevHookRuns := hookRuns
	second := run(ps)
	if hookRuns != prevHookRuns {
		t.Fatalf("barrier hooks survived Reset (%d extra runs)", hookRuns-prevHookRuns)
	}
	if first == 0 || second != first {
		t.Fatalf("fired counts differ after Reset: %d vs %d", second, first)
	}
}

// TestShardedParallelWindows: with enough events per shard the window loop
// must actually run shards concurrently when helpers are available, and the
// result (total fired, final clocks) must match a serial single-shard run.
func TestShardedParallelWindows(t *testing.T) {
	const L = simtime.Millisecond
	const shards = 4
	ps := NewSharded(3, shards, L)

	var fired atomic.Int64
	for i := 0; i < shards; i++ {
		sh := ps.Shard(i)
		var tick func()
		tick = func() {
			fired.Add(1)
			if sh.Now() < 0.9 {
				sh.After(3*simtime.Millisecond, tick)
			}
		}
		sh.At(simtime.Time(i)*0.0001, tick)
	}
	ps.RunUntil(1)

	want := int64(ps.Fired())
	if got := fired.Load(); got != want {
		t.Fatalf("fired callbacks %d != Fired() %d", got, want)
	}
	if fired.Load() < shards*300 {
		t.Fatalf("suspiciously few events fired: %d", fired.Load())
	}
}

// TestWorkerPoolTokens: Acquire is non-blocking, bounded by pool capacity,
// and Release restores every token.
func TestWorkerPoolTokens(t *testing.T) {
	cap := runtime.GOMAXPROCS(0) - 1
	if cap < 1 {
		t.Skip("GOMAXPROCS=1: empty worker pool")
	}
	got := AcquireWorkers(1 << 20)
	if got != cap {
		// Another test may be holding tokens; tolerate fewer but never more.
		if got > cap {
			t.Fatalf("acquired %d workers, pool capacity %d", got, cap)
		}
	}
	// Pool drained (by us and possibly concurrent holders): next acquire
	// must return 0 immediately rather than block.
	if extra := AcquireWorkers(1); extra != 0 && got == cap {
		t.Fatalf("acquired %d extra workers from a drained pool", extra)
	}
	ReleaseWorkers(got)
	if again := AcquireWorkers(cap); again < got {
		ReleaseWorkers(again)
		t.Fatalf("reacquired only %d of %d released workers", again, got)
	} else {
		ReleaseWorkers(again)
	}
	if AcquireWorkers(0) != 0 || AcquireWorkers(-1) != 0 {
		t.Fatal("AcquireWorkers(<=0) must return 0")
	}
}

// TestShardedPanicReachesCaller: an event that panics on a helper goroutine
// must not kill the process. With every shard panicking in the first window,
// RunUntil re-raises shard 0's value on its caller whichever goroutine ran
// shard 0, returns every worker token, and leaves no helper behind.
func TestShardedPanicReachesCaller(t *testing.T) {
	const shards = 4
	before := runtime.NumGoroutine()
	ps := NewSharded(1, shards, simtime.Millisecond)
	for i := 0; i < shards; i++ {
		i := i
		ps.Shard(i).At(0, func() { panic(i) })
	}
	hooked := false
	ps.OnBarrier(func(simtime.Time) { hooked = true })

	got := func() (r any) {
		defer func() { r = recover() }()
		ps.RunUntil(1)
		return nil
	}()
	if got != 0 {
		t.Fatalf("recovered %v, want shard 0's value 0", got)
	}
	if hooked {
		t.Error("barrier hook ran after a panicking window")
	}

	pool := runtime.GOMAXPROCS(0) - 1
	if tokens := AcquireWorkers(pool); tokens != pool {
		t.Errorf("worker pool holds %d of %d tokens after the panic", tokens, pool)
	} else {
		ReleaseWorkers(tokens)
	}
	// RunUntil waits for its helpers' last deferred call, not for the
	// runtime to retire them; give the scheduler a moment to do that.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before RunUntil, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
