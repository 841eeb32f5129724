package scenario

import (
	"runtime"
	"slices"
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/network"
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
// ~153 and n=256 to ~7,930. Keeping the envelopes, payloads and round
// buffers on the simulator across Reset took them to ~94 and ~3,457, and
// keeping each processor's harness and Sync node there too — the clocks in two
// slabs — to ~34 and ~1,155. What is left is per run, not per ping, per
// sample or per processor: what a run leaves in flight at its horizon, which
// the next run allocates again (three objects a message), the run's slabs and
// the reserved logs. The last row budgets the cost of observing itself: the
// online checker reads the recorder's samples, so it may add its own fixed
// state and nothing per sample.
func TestClusterMinuteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second cluster simulations")
	}
	if raceEnabled {
		t.Skip("alloc counts include race-detector bookkeeping")
	}
	plain := clusterMinuteAllocs(t, 7, 50, false) // measured 33
	if plain > 60 {
		t.Errorf("cluster minute n=7: %v allocs per run over budget 60 — a payload, event, sample or processor path stopped pooling", plain)
	}
	if big := clusterMinuteAllocs(t, 256, 2, false); big > 2_000 { // measured 1,154
		t.Errorf("cluster minute n=256: %v allocs per run over budget 2000 — a payload, event, sample or processor path stopped pooling", big)
	}
	if extra := clusterMinuteAllocs(t, 7, 50, true) - plain; extra > 32 { // measured +2
		t.Errorf("checked cluster minute n=7: %v allocs more than unchecked, budget 32 — the checker is measuring or allocating per sample again", extra)
	}
}

// warmMinuteAllocs is the allocation count of one simulated minute of an
// n-processor full mesh at seed 1 on an engine that has run it before — sim,
// or ps when sim is nil — and the number of messages the minute leaves in
// flight at its horizon.
func warmMinuteAllocs(t *testing.T, n int, sim *des.Sim, ps *des.ShardedSim) (allocs float64, inFlight int) {
	var net *network.Network
	build := SyncBuilder(nil)
	s := Scenario{
		Name: "warm-minute", Seed: 1, N: n, F: (n - 1) / 3,
		Duration: simtime.Minute, Theta: 2 * simtime.Minute,
		Rho: 1e-4, SyncInt: 10 * simtime.Second,
		ReuseSim: sim, ReuseSharded: ps,
		Builder: func(ctx BuildContext) Starter {
			net = ctx.Harness.Net()
			return build(ctx)
		},
	}
	run := func() {
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs = testing.AllocsPerRun(10, run)
	return allocs, net.TotalSent() - net.TotalDelivered() - net.TotalDropped()
}

// TestWarmEngineAllocFlatInN pins that a run on a warm engine builds no
// processor: each harness, Sync node and peer sampler is a slot its queue
// keeps across Reset, re-initialised in place, and the clocks are a slab
// of the run. So a 64-node minute allocates no more than a 7-node one, on
// the serial engine and on two shards alike — bar what each leaves in flight
// at its horizon: a message still in flight is dropped with its run, and the
// next run allocates its envelope, the envelope's delivery closure and its
// payload again (des.Owned). At seed 1 the 64-node minute leaves 17 messages
// in flight and the 7-node one none; measured +53 objects on both engines,
// +2 past those three per message, and +566 when every run built each
// processor afresh, nine objects a processor.
func TestWarmEngineAllocFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts include race-detector bookkeeping")
	}
	held := des.AcquireWorkers(1 << 20) // the shards run inline: no helper goroutines
	defer des.ReleaseWorkers(held)
	const budget, perMessage = 16, 3
	engines := []struct {
		name string
		run  func(n int) (float64, int)
	}{
		{"serial", func(n int) (float64, int) { return warmMinuteAllocs(t, n, des.New(0), nil) }},
		{"two-shard", func(n int) (float64, int) {
			return warmMinuteAllocs(t, n, nil, des.NewSharded(0, 2, 5*simtime.Millisecond))
		}},
	}
	for _, e := range engines {
		small, smallFlight := e.run(7)
		big, bigFlight := e.run(64)
		t.Logf("%s: n=7 %v allocs, %d messages in flight at the horizon; n=64 %v allocs, %d in flight",
			e.name, small, smallFlight, big, bigFlight)
		if extra := big - small - float64(perMessage*(bigFlight-smallFlight)); extra > budget {
			t.Errorf("%s engine: a warm 64-node minute allocates %v objects, a 7-node one %v — %v more than their messages in flight account for, budget %d: a run builds its processors again",
				e.name, big, small, extra, budget)
		}
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
// took 2.3 / 3.7 / 5.7 KB; 2.0 / 1.8 / 1.8 KB, with k = 7 / 31 / 63 at
// 1.75 / 1.83 / 1.93 KB, once the round's buffers were lent; and 1.09 / 1.02
// / 1.02 KB, with k = 7 / 31 / 63 at 1.01 / 1.04 / 1.07 KB, since a warm
// engine keeps each processor's harness, Sync node and sampler in a slot and
// the run's clocks are slabs.
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

// releasedMinuteAllocs is the allocation count of one simulated minute of an
// n-processor full mesh at seed 1 on an engine that has run it before — sim,
// or ps when sim is nil — with each result released, as campaign workers
// release theirs: the run's measurement slabs come back from the pool, so
// what is counted is what the run itself builds.
func releasedMinuteAllocs(t *testing.T, n int, sim *des.Sim, ps *des.ShardedSim) float64 {
	s := Scenario{
		Name: "released-minute", Seed: 1, N: n, F: (n - 1) / 3,
		Duration: simtime.Minute, Theta: 2 * simtime.Minute,
		Rho: 1e-4, SyncInt: 10 * simtime.Second,
		ReuseSim: sim, ReuseSharded: ps,
	}
	run := func() {
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run()
	return testing.AllocsPerRun(20, run)
}

// TestReleasedMinuteAllocBudget pins the objects a warm, released minute
// allocates on a reused engine — the run's node table, clocks, recorder,
// ticker and topology, and nothing per event or processor — and that the
// serial engine and a one-shard ReuseSharded are one engine: the same count on
// both. Measured 21 at n=7 and 74 at n=64 on both since a clock holds its
// hardware clock by value (22 and 75 with a slab of hardware clocks beside
// the clocks; the one-shard engine took 24 and 77 while it ran a global queue
// beside its shard and registered a barrier hook); the n=64 minute leaves 17 messages in flight, and the next
// run allocates each again (TestWarmEngineAllocFlatInN).
func TestReleasedMinuteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	for _, tc := range []struct {
		n      int
		budget float64
	}{{7, 21}, {64, 74}} {
		serial := releasedMinuteAllocs(t, tc.n, des.New(0), nil)
		oneShard := releasedMinuteAllocs(t, tc.n, nil, des.NewSharded(0, 1, 5*simtime.Millisecond))
		if serial > tc.budget || oneShard > tc.budget {
			t.Errorf("warm n=%d minute: %v objects on a reused simulator, %v on a reused one-shard engine, budget %v",
				tc.n, serial, oneShard, tc.budget)
		}
	}
}
