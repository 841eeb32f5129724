package scenario

import (
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
// cluster minute. The payload free lists (TimeReq/TimeResp pooled per
// harness, sized to the round's working set) took n=256 from ~752k to ~105k
// allocs per run, and measuring each instant once into one Sample to ~91k;
// the budgets hold that ground with headroom for noise, so un-pooling a hot
// payload path fails plain `go test`, not only a benchmark comparison. The
// last row budgets the cost of observing itself: the online checker reads the
// recorder's samples, so it may add its own fixed state and nothing per
// sample.
func TestClusterMinuteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second cluster simulations")
	}
	if raceEnabled {
		t.Skip("alloc counts include race-detector bookkeeping")
	}
	plain := clusterMinuteAllocs(t, 7, 50, false) // measured ~650
	if plain > 900 {
		t.Errorf("cluster minute n=7: %v allocs per run over budget 900 — a payload or event path stopped pooling", plain)
	}
	if big := clusterMinuteAllocs(t, 256, 2, false); big > 120_000 { // measured ~91k
		t.Errorf("cluster minute n=256: %v allocs per run over budget 120000 — a payload or event path stopped pooling", big)
	}
	if extra := clusterMinuteAllocs(t, 7, 50, true) - plain; extra > 32 { // measured +10
		t.Errorf("checked cluster minute n=7: %v allocs more than unchecked, budget 32 — the checker is measuring or allocating per sample again", extra)
	}
}
