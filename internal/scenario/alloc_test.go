package scenario

import (
	"runtime"
	"slices"
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
// ~14,250 to ~9,690, and keeping a round's pings and readings in the round
// alone (no window ring, no estimate copy, one selection buffer) n=7 to ~174
// and n=256 to ~9,180, and lending a round's buffers from the lane n=7 to
// ~153 and n=256 to ~7,930. What is left is per run, not per ping or per sample: the
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
	plain := clusterMinuteAllocs(t, 7, 50, false) // measured 153
	if plain > 240 {
		t.Errorf("cluster minute n=7: %v allocs per run over budget 240 — a payload, event or sample path stopped pooling", plain)
	}
	if big := clusterMinuteAllocs(t, 256, 2, false); big > 12_000 { // measured 7,932
		t.Errorf("cluster minute n=256: %v allocs per run over budget 12000 — a payload, event or sample path stopped pooling", big)
	}
	if extra := clusterMinuteAllocs(t, 7, 50, true) - plain; extra > 32 { // measured +9
		t.Errorf("checked cluster minute n=7: %v allocs more than unchecked, budget 32 — the checker is measuring or allocating per sample again", extra)
	}
}

// sampledMinuteBytesPerNode is what one simulated minute of an n-processor
// cluster in sparse-estimation mode (k sampled peers, f = min(10, (k−1)/2))
// allocates, per processor, on a reused one-shard simulator — the benchmark's
// sim_sampled_n1024 regime (k=31) at other sizes.
func sampledMinuteBytesPerNode(t *testing.T, n, k int) float64 {
	s := sampledMinute("sampled-minute", n, min(10, (k-1)/2), k, 1)
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
// n" rests on, and that the cost is flat in k too: a processor that samples k
// peers owns no round-sized state at all. Its picks, estimates and selection
// scratch are lent for the length of a round — by its lane, and by the
// convergence function's pool — so what grows with k is per lane, not per
// processor, and no neighbour list exists. Measured 8.1–8.3 KB per processor
// per simulated minute at n = 256, 2048 and 4096 alike with a pending-window
// entry per ping and a copy of the estimates per round (24 KB at n=256 and
// 84 KB at n=4096 with the two (n−1)-long neighbour slices and the
// per-processor ping map before that); 3.8 / 3.7 / 3.7 KB once a round became
// the only record of its pings and readings, when k = 7 / 31 / 63 at n=1024
// took 2.3 / 3.7 / 5.7 KB; and 2.0 / 1.8 / 1.8 KB, with k = 7 / 31 / 63 at
// 1.75 / 1.83 / 1.93 KB, since the round's buffers are lent.
func TestSampledStateAllocFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts include race-detector bookkeeping")
	}
	const budget = 2560
	sizes := []int{2048}
	if !testing.Short() {
		sizes = append(sizes, 4096)
	}
	base := sampledMinuteBytesPerNode(t, 256, 31)
	if base > budget {
		t.Errorf("n=256: %.0f bytes per node per minute over budget %d", base, budget)
	}
	for _, n := range sizes {
		if got := sampledMinuteBytesPerNode(t, n, 31); got > 1.1*base || got > budget {
			t.Errorf("n=%d: %.0f bytes per node per minute, n=256 took %.0f — want within 10%% and under %d: per-node state grows with n",
				n, got, base, budget)
		} else {
			t.Logf("n=%d: %.0f bytes per node per minute (n=256: %.0f)", n, got, base)
		}
	}
	var perK []float64
	for _, k := range []int{7, 31, 63} {
		got := sampledMinuteBytesPerNode(t, 1024, k)
		if got > budget {
			t.Errorf("n=1024 k=%d: %.0f bytes per node per minute over budget %d", k, got, budget)
		}
		perK = append(perK, got)
	}
	if lo, hi := slices.Min(perK), slices.Max(perK); hi > 1.1*lo {
		t.Errorf("n=1024, k = 7 / 31 / 63: %.0f / %.0f / %.0f bytes per node per minute — want within 10%%: per-node state grows with k",
			perK[0], perK[1], perK[2])
	} else {
		t.Logf("n=1024, k = 7 / 31 / 63: %.0f / %.0f / %.0f bytes per node per minute", perK[0], perK[1], perK[2])
	}
}
