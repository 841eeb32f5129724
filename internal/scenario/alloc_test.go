package scenario

import (
	"runtime"
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

// clusterMinuteAllocs is the allocation count of one simulated minute of an
// n-processor cluster (network, estimation, convergence, metrics — and the
// online checker when check is set) on a reused simulator, the
// arena-recycling regime campaign workers run in.
func clusterMinuteAllocs(t *testing.T, n, runs int, check bool) float64 {
	sim := des.New(0)
	seed := int64(0)
	return testing.AllocsPerRun(runs, func() {
		_, err := Run(Scenario{
			Name:     "cluster-minute",
			Seed:     seed,
			N:        n,
			F:        (n - 1) / 3,
			Duration: simtime.Minute,
			Theta:    2 * simtime.Minute,
			Rho:      1e-4,
			SyncInt:  10 * simtime.Second,
			ReuseSim: sim,
			Check:    check,
		})
		if err != nil {
			t.Fatal(err)
		}
		seed++
	})
}

// TestClusterMinuteAllocBudget pins the end-to-end allocation profile of a
// cluster minute. Pooling the TimeReq/TimeResp payloads took n=256 from ~752k
// to ~105k allocs per run, measuring each instant once into one Sample to
// ~91k, and moving the payload lists from every harness to the network's
// shards, the pending pings from a map to a window and the round scratch from
// doubling to sized-once to ~14k; the budgets hold that ground with headroom
// for noise, so un-pooling a hot payload path fails plain `go test`, not only
// a benchmark comparison. Taking samples into slabs reserved for the run,
// binding the ticker's and the round alarm's callbacks once and condensing
// the report without a second copy took n=7 from ~504 to ~187 and n=256 from
// ~14,250 to ~9,690. What is left is per run, not per ping or per sample: the
// envelopes and payloads in flight at the peak (the network is rebuilt every
// run), each node's state and the reserved logs. The last row budgets the cost
// of observing itself: the online checker reads the recorder's samples, so it
// may add its own fixed state and nothing per sample.
func TestClusterMinuteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second cluster simulations")
	}
	if raceEnabled {
		t.Skip("alloc counts include race-detector bookkeeping")
	}
	plain := clusterMinuteAllocs(t, 7, 50, false) // measured 187
	if plain > 240 {
		t.Errorf("cluster minute n=7: %v allocs per run over budget 240 — a payload, event or sample path stopped pooling", plain)
	}
	if big := clusterMinuteAllocs(t, 256, 2, false); big > 12_000 { // measured 9,686
		t.Errorf("cluster minute n=256: %v allocs per run over budget 12000 — a payload, event or sample path stopped pooling", big)
	}
	if extra := clusterMinuteAllocs(t, 7, 50, true) - plain; extra > 32 { // measured +9
		t.Errorf("checked cluster minute n=7: %v allocs more than unchecked, budget 32 — the checker is measuring or allocating per sample again", extra)
	}
}

// sampledMinuteBytesPerNode is what one simulated minute of an n-processor
// cluster in sparse-estimation mode (k=31, f=10) allocates, per processor, on
// a reused one-shard simulator — the benchmark's sim_sampled_n1024 regime at
// other sizes.
func sampledMinuteBytesPerNode(t *testing.T, n int) float64 {
	s := sampledMinute("sampled-minute", n, 10, 31, 1)
	var before, after runtime.MemStats
	for seed := int64(0); seed < 2; seed++ { // the first run sizes the event arena
		s.Seed = seed
		runtime.ReadMemStats(&before)
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestSampledStateAllocFlatInN pins the property E21's "per-node cost flat in
// n" rests on: a processor that samples k peers holds O(k) state — k pending
// pings, k picks, k estimates, three k-vectors of round scratch — and nothing
// that grows with the cluster, no neighbour list included. Measured 8.1–8.3 KB
// per processor per simulated minute at n = 256, 2048 and 4096 alike; with
// the two (n−1)-long neighbour slices and the per-processor ping map this
// replaced it was 24 KB at n=256 and 84 KB at n=4096.
func TestSampledStateAllocFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts include race-detector bookkeeping")
	}
	sizes := []int{2048}
	if !testing.Short() {
		sizes = append(sizes, 4096)
	}
	base := sampledMinuteBytesPerNode(t, 256)
	if base > 12<<10 {
		t.Errorf("n=256: %.0f bytes per node per minute over budget %d", base, 12<<10)
	}
	for _, n := range sizes {
		if got := sampledMinuteBytesPerNode(t, n); got > 1.1*base || got > 12<<10 {
			t.Errorf("n=%d: %.0f bytes per node per minute, n=256 took %.0f — want within 10%% and under %d: per-node state grows with n",
				n, got, base, 12<<10)
		} else {
			t.Logf("n=%d: %.0f bytes per node per minute (n=256: %.0f)", n, got, base)
		}
	}
}
