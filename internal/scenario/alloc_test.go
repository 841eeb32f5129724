package scenario

import (
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

// TestClusterMinuteAllocBudget pins the end-to-end allocation profile of one
// simulated minute of an n-processor cluster (network, estimation,
// convergence, metrics) on a reused simulator — the arena-recycling regime
// campaign workers run in. The payload free lists (TimeReq/TimeResp pooled
// per harness, sized to the round's working set) took n=256 from ~752k to
// ~105k allocs per run; the budgets below hold that ground with headroom for
// noise, so un-pooling a hot payload path fails plain `go test`, not only a
// benchmark comparison.
func TestClusterMinuteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second cluster simulations")
	}
	if raceEnabled {
		t.Skip("alloc counts include race-detector bookkeeping")
	}
	for _, tc := range []struct {
		n, runs int
		budget  float64
	}{
		{7, 50, 1_500},    // measured ~1.06k
		{256, 2, 160_000}, // measured ~105k
	} {
		sim := des.New(0)
		seed := int64(0)
		allocs := testing.AllocsPerRun(tc.runs, func() {
			_, err := Run(Scenario{
				Name:     "cluster-minute",
				Seed:     seed,
				N:        tc.n,
				F:        (tc.n - 1) / 3,
				Duration: simtime.Minute,
				Theta:    2 * simtime.Minute,
				Rho:      1e-4,
				SyncInt:  10 * simtime.Second,
				ReuseSim: sim,
			})
			if err != nil {
				t.Fatal(err)
			}
			seed++
		})
		if allocs > tc.budget {
			t.Errorf("cluster minute n=%d: %v allocs per run over budget %v — a payload or event path stopped pooling",
				tc.n, allocs, tc.budget)
		}
	}
}
