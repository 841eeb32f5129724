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

// testCluster wires n Sync nodes over a full mesh with the given initial
// biases and drift slopes.
type testCluster struct {
	sim   *des.Sim
	net   *network.Network
	nodes []*Node
}

func defaultTestConfig(f int) Config {
	return Config{
		F:       f,
		SyncInt: 10 * simtime.Second,
		MaxWait: 100 * simtime.Millisecond,
		WayOff:  2 * simtime.Second,
	}
}

func newTestCluster(t *testing.T, n int, cfg Config, biases []simtime.Duration, slopes []float64) *testCluster {
	t.Helper()
	sim := des.New(99)
	net := network.New(sim, network.NewFullMesh(n), network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond))
	tc := &testCluster{sim: sim, net: net}
	for i := 0; i < n; i++ {
		slope := 1.0
		if i < len(slopes) {
			slope = slopes[i]
		}
		bias := simtime.Duration(0)
		if i < len(biases) {
			bias = biases[i]
		}
		h := protocol.NewHarness(i, sim, net, clock.NewLocal(clock.NewDrifting(0, simtime.Time(bias), slope)))
		nodeCfg := cfg
		// Stagger first executions; the protocol must not rely on phase.
		nodeCfg.FirstSync = simtime.Duration(i) * cfg.SyncInt / simtime.Duration(n)
		node := New(h, nodeCfg)
		tc.nodes = append(tc.nodes, node)
		node.Start()
	}
	return tc
}

func (tc *testCluster) biases(at simtime.Time) []float64 {
	out := make([]float64, len(tc.nodes))
	for i, n := range tc.nodes {
		out[i] = float64(n.Harness().Clock().Bias(at))
	}
	return out
}

func TestClusterConvergesWithoutFaults(t *testing.T) {
	// Initial biases spread over ±0.5 s; no faults, mild drift. After a few
	// rounds the spread must fall well below the initial spread and stay
	// within the Theorem 5 deviation bound for these parameters (≈ 0.83 s).
	biases := []simtime.Duration{-0.5, -0.2, 0.1, 0.5}
	slopes := []float64{1 + 1e-4, 1 - 1e-4, 1, 1 + 5e-5}
	tc := newTestCluster(t, 4, defaultTestConfig(1), biases, slopes)
	tc.sim.RunUntil(300)
	final := tc.biases(300)
	if s := stats.Spread(final); s > 0.2 {
		t.Fatalf("cluster did not converge: spread=%v biases=%v", s, final)
	}
}

func TestClusterStaysConvergedLongRun(t *testing.T) {
	biases := []simtime.Duration{0.05, -0.05, 0, 0.02}
	slopes := []float64{1 + 1e-4, 1 - 1e-4, 1 + 2e-5, 1 - 7e-5}
	tc := newTestCluster(t, 4, defaultTestConfig(1), biases, slopes)
	// Sample the spread every 50 s over an hour.
	worst := 0.0
	for hor := simtime.Time(50); hor <= 3600; hor += 50 {
		tc.sim.RunUntil(hor)
		if s := stats.Spread(tc.biases(hor)); s > worst {
			worst = s
		}
	}
	// Theorem 5 bound for ε≈50ms: Δ ≈ 16ε ≈ 0.8 s; typical behaviour is far
	// better. Require staying under half the bound.
	if worst > 0.4 {
		t.Fatalf("spread drifted to %v over long run", worst)
	}
}

func TestFarNodeTriggersWayOffAndRecovers(t *testing.T) {
	// One node starts 100 s away — far beyond WayOff. It must take the
	// "ignore own clock" branch and converge geometrically; Sync recovery
	// takes O(log(offset/Δ)) rounds, so 300 s (a handful of rounds) is ample.
	biases := []simtime.Duration{0, 0, 0, 100 * simtime.Second}
	tc := newTestCluster(t, 4, defaultTestConfig(1), biases, nil)
	tc.sim.RunUntil(300)
	final := tc.biases(300)
	if s := stats.Spread(final); s > 0.2 {
		t.Fatalf("far node failed to recover: %v", final)
	}
	if tc.nodes[3].Stats().WayOffTriggers == 0 {
		t.Fatal("far node never took the WayOff branch")
	}
	for i := 0; i < 3; i++ {
		if tc.nodes[i].Stats().WayOffTriggers != 0 {
			t.Fatalf("well-synchronized node %d took the WayOff branch", i)
		}
	}
}

func TestGoodNodesUnmovedByFarNode(t *testing.T) {
	// Property 1: the n−f good biases (all near 0) must stay near 0 even
	// though one node is 100 s away — the trimming discards its influence.
	biases := []simtime.Duration{0, 0, 0, 100 * simtime.Second}
	tc := newTestCluster(t, 4, defaultTestConfig(1), biases, nil)
	tc.sim.RunUntil(300)
	for i := 0; i < 3; i++ {
		if b := math.Abs(float64(tc.nodes[i].Harness().Clock().Bias(300))); b > 0.1 {
			t.Fatalf("good node %d dragged to bias %v", i, b)
		}
	}
}

func TestSyncCadenceOneToTwoPerT(t *testing.T) {
	// §4: during any interval of length T = (1+ρ)SyncInt + 2MaxWait, every
	// non-faulty processor completes at least one and at most two Syncs.
	cfg := defaultTestConfig(1)
	tc := newTestCluster(t, 4, cfg, nil, []float64{1 + 1e-4, 1 - 1e-4, 1, 1})
	tType := simtime.Duration((1+1e-4)*float64(cfg.SyncInt)) + 2*cfg.MaxWait

	prev := make([]int, 4)
	tc.sim.RunUntil(simtime.Time(tType)) // warm-up window
	for i, n := range tc.nodes {
		prev[i] = n.Stats().Syncs
	}
	for w := 1; w <= 20; w++ {
		tc.sim.RunUntil(simtime.Time(tType) * simtime.Time(w+1))
		for i, n := range tc.nodes {
			got := n.Stats().Syncs - prev[i]
			if got < 1 || got > 2 {
				t.Fatalf("window %d: node %d completed %d Syncs, want 1..2", w, i, got)
			}
			prev[i] = n.Stats().Syncs
		}
	}
}

func TestFaultyNodeSkipsButAlarmSurvives(t *testing.T) {
	tc := newTestCluster(t, 4, defaultTestConfig(1), nil, nil)
	victim := tc.nodes[0]
	tc.sim.At(15, func() { victim.Harness().Corrupt(smashBehavior{offset: 500}) })
	tc.sim.At(100, func() { victim.Harness().Release() })
	tc.sim.RunUntil(400)
	st := victim.Stats()
	if st.Skipped == 0 {
		t.Fatal("faulty node never skipped a tick")
	}
	// After release the node must rejoin: bias back near 0.
	if b := math.Abs(float64(victim.Harness().Clock().Bias(400))); b > 0.2 {
		t.Fatalf("victim did not recover after release: bias=%v", b)
	}
	if st2 := victim.Stats(); st2.WayOffTriggers == 0 {
		t.Fatal("victim with a 500 s smashed clock should have tripped WayOff")
	}
}

func TestByzantineLiarDoesNotBreakBound(t *testing.T) {
	// One permanently-corrupted node reports wild values; the three good
	// nodes (n=4, f=1) must stay synchronized.
	tc := newTestCluster(t, 4, defaultTestConfig(1), nil, []float64{1 + 1e-4, 1 - 1e-4, 1, 1})
	tc.sim.At(1, func() { tc.nodes[3].Harness().Corrupt(oscillatingLiar{}) })
	tc.sim.RunUntil(1800)
	good := tc.biases(1800)[:3]
	if s := stats.Spread(good); s > 0.4 {
		t.Fatalf("good nodes diverged under Byzantine liar: spread=%v", s)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	sim := des.New(1)
	net := network.New(sim, network.NewFullMesh(2), network.ConstantDelay{D: 1})
	h := protocol.NewHarness(0, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, 1)))
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config must panic")
		}
	}()
	New(h, Config{F: -1, SyncInt: 10, MaxWait: 1, WayOff: 1})
}

// smashBehavior sets the victim's clock far away on corruption and stays
// silent while in control.
type smashBehavior struct {
	offset simtime.Duration
}

func (smashBehavior) RespondTime(*protocol.Harness, int, simtime.Time) (simtime.Time, bool) {
	return 0, false
}

func (b smashBehavior) OnCorrupt(h *protocol.Harness, now simtime.Time) {
	h.Clock().SetAdj(b.offset)
}

func (smashBehavior) OnRelease(*protocol.Harness, simtime.Time) {}

// oscillatingLiar replies with alternating ±1000 s readings.
type oscillatingLiar struct{}

func (oscillatingLiar) RespondTime(h *protocol.Harness, peer int, now simtime.Time) (simtime.Time, bool) {
	if peer%2 == 0 {
		return now.Add(1000), true
	}
	return now.Add(-1000), true
}

func (oscillatingLiar) OnCorrupt(*protocol.Harness, simtime.Time) {}
func (oscillatingLiar) OnRelease(*protocol.Harness, simtime.Time) {}
