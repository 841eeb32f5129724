package scenario

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/simtime"
)

func shardedSweepScenario() Scenario {
	return Scenario{
		Name: "compose", N: 16, F: 2,
		Duration: simtime.Minute, Theta: 2 * simtime.Minute,
		Rho:        1e-4,
		Delay:      network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond),
		InitSpread: 100 * simtime.Millisecond,
		SyncInt:    10 * simtime.Second,
		Shards:     4,
	}
}

// TestWorkerBudgetComposes pins the oversubscription guard: a Sweep whose
// runs are themselves sharded draws every extra goroutine — sweep helpers
// and shard window helpers alike — from the one process-wide pool of
// GOMAXPROCS−1 tokens, so the peak goroutine count stays within GOMAXPROCS
// of the baseline instead of multiplying (sweep workers × shards).
func TestWorkerBudgetComposes(t *testing.T) {
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}

	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	stop := make(chan struct{})
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if g := int64(runtime.NumGoroutine()); g > peak.Load() {
					peak.Store(g)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	if _, err := Sweep(func(int64) Scenario { return shardedSweepScenario() }, seeds); err != nil {
		t.Fatal(err)
	}
	close(stop)
	mon.Wait()

	// Budget: the caller plus at most GOMAXPROCS−1 pooled helpers, the
	// monitor, and a small slack for runtime-internal goroutines.
	budget := int64(baseline + runtime.GOMAXPROCS(0) + 3)
	if got := peak.Load(); got > budget {
		t.Fatalf("peak goroutines %d over budget %d (baseline %d, GOMAXPROCS %d) — worker pools are stacking",
			got, budget, baseline, runtime.GOMAXPROCS(0))
	}
}

// TestShardedRunsWithDrainedPool: when the worker pool is exhausted (e.g. a
// surrounding sweep owns every token), sharded runs must fall back to inline
// execution on the caller's goroutine and still produce identical results.
func TestShardedRunsWithDrainedPool(t *testing.T) {
	want := observe(t, 4, 0, false)

	held := des.AcquireWorkers(1 << 20)
	defer des.ReleaseWorkers(held)

	got := observe(t, 4, 0, false)
	if got.report != want.report || got.msgs != want.msgs {
		t.Fatalf("drained-pool run diverged: %s/%d msgs, want %s/%d",
			got.report, got.msgs, want.report, want.msgs)
	}
}
