package core

import (
	"math"
	"testing"

	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
	"clocksync/internal/stats"
)

// cachedCluster builds a cluster running the §3.1 cached-estimation variant.
func cachedCluster(t *testing.T, refresh simtime.Duration, invalidate bool, biases []simtime.Duration) *testCluster {
	t.Helper()
	cfg := defaultTestConfig(1)
	cfg.CachedEstimation = true
	cfg.CacheRefresh = refresh
	cfg.CacheInvalidateOnAdjust = invalidate
	return newTestCluster(t, 4, cfg, biases, nil)
}

func TestCachedEstimationConvergesInSteadyState(t *testing.T) {
	// With a fast refresh (SyncInt/4) and small offsets, the cached variant
	// behaves almost like the direct one.
	biases := []simtime.Duration{-0.3, -0.1, 0.1, 0.3}
	tc := cachedCluster(t, 2500*simtime.Millisecond, false, biases)
	tc.sim.RunUntil(400)
	if s := stats.Spread(tc.biases(400)); s > 0.2 {
		t.Fatalf("cached variant did not converge: spread=%v", s)
	}
	if tc.nodes[0].Cache() == nil || tc.nodes[0].Cache().Sweeps() == 0 {
		t.Fatal("cache never swept")
	}
}

func TestStaleCacheBreaksRecovery(t *testing.T) {
	// §3.1's warning made concrete: with a slow cache (refresh 2.5×SyncInt)
	// a node recovering from a 100 s smash applies its WayOff jump, but the
	// next Syncs still see the pre-jump estimates and jump again — the bias
	// overshoots far past the good range before the cache catches up. The
	// direct variant (core tests) recovers monotonically; here we assert
	// the overshoot exists, which is exactly why Definition 4 matters.
	biases := []simtime.Duration{0, 0, 0, 100}
	tc := cachedCluster(t, 25*simtime.Second, false, biases)
	overshoot := 0.0
	for at := simtime.Time(1); at <= 600; at++ {
		tc.sim.RunUntil(at)
		b := float64(tc.nodes[3].Harness().Clock().Bias(at))
		if -b > overshoot {
			overshoot = -b // how far below the good range (0) it swings
		}
	}
	if overshoot < 10 {
		t.Fatalf("expected a large overshoot from stale cached estimates, got %v", overshoot)
	}
}

func TestInvalidateOnAdjustRepairsRecovery(t *testing.T) {
	// Same slow cache, but the repaired variant invalidates after each
	// adjustment: the node never applies a stale offset twice, so there is
	// no significant overshoot and it rejoins.
	biases := []simtime.Duration{0, 0, 0, 100}
	tc := cachedCluster(t, 25*simtime.Second, true, biases)
	overshoot := 0.0
	for at := simtime.Time(1); at <= 600; at++ {
		tc.sim.RunUntil(at)
		b := float64(tc.nodes[3].Harness().Clock().Bias(at))
		if -b > overshoot {
			overshoot = -b
		}
	}
	if overshoot > 1 {
		t.Fatalf("repaired variant overshot by %v", overshoot)
	}
	if b := math.Abs(float64(tc.nodes[3].Harness().Clock().Bias(600))); b > 0.2 {
		t.Fatalf("repaired variant did not recover: bias=%v", b)
	}
}

func TestCacheInvalidatedOnRelease(t *testing.T) {
	tc := cachedCluster(t, 2500*simtime.Millisecond, true, nil)
	victim := tc.nodes[1]
	tc.sim.At(30, func() { victim.Harness().Corrupt(smashBehavior{offset: 50}) })
	tc.sim.At(60, func() { victim.Harness().Release() })
	tc.sim.RunUntil(65)
	// Release wipes the cache (its contents were adversary-writable); any
	// entry present shortly afterwards must come from a post-release sweep.
	// Entries that survived the break-in would be ≥ 30 s old.
	for _, peer := range []int{0, 2, 3} {
		if age, ok := victim.Cache().Age(peer); ok && age > 6 {
			t.Fatalf("stale cache entry for peer %d survived release (age %v)", peer, age)
		}
	}
	// And the node still recovers through fresh sweeps.
	tc.sim.RunUntil(400)
	if b := math.Abs(float64(victim.Harness().Clock().Bias(400))); b > 0.2 {
		t.Fatalf("victim did not recover: bias=%v", b)
	}
}

func TestCacheAgeTracksStaleness(t *testing.T) {
	sim := des.New(3)
	net := network.New(sim, network.NewFullMesh(2), network.ConstantDelay{D: simtime.Millisecond})
	h0 := protocol.NewHarness(0, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1)))
	_ = protocol.NewHarness(1, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1)))
	cache := protocol.NewEstimateCache(h0, []int{1}, 10, 1)
	cache.Start()
	sim.RunUntil(11) // first sweep at local 10, reply ~2ms later
	age, ok := cache.Age(1)
	if !ok {
		t.Fatal("no cache entry after first sweep")
	}
	if age < 0 || age > 1 {
		t.Fatalf("age just after refresh: %v", age)
	}
	sim.RunUntil(19)
	age, _ = cache.Age(1)
	if age < 7 || age > 9.1 {
		t.Fatalf("age before next sweep: %v", age)
	}
	ests := cache.GetAll()
	if len(ests) != 1 || !ests[0].OK {
		t.Fatalf("GetAll: %+v", ests)
	}
	cache.Invalidate()
	if ests := cache.GetAll(); ests[0].OK {
		t.Fatal("invalidated cache served an estimate")
	}
}

func TestCachePanics(t *testing.T) {
	sim := des.New(1)
	net := network.New(sim, network.NewFullMesh(2), network.ConstantDelay{D: 1})
	h := protocol.NewHarness(0, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1)))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero refresh must panic")
			}
		}()
		protocol.NewEstimateCache(h, []int{1}, 0, 1)
	}()
	c := protocol.NewEstimateCache(h, []int{1}, 1, 1)
	c.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start must panic")
		}
	}()
	c.Start()
}
