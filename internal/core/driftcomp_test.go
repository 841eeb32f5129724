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

// driftCluster builds a cluster with strong drift and long sync intervals —
// the regime where the drift term 18ρT dominates the deviation budget and
// frequency feedback has something to cancel.
func driftCluster(t *testing.T, driftComp bool) *testCluster {
	t.Helper()
	cfg := Config{
		F:         1,
		SyncInt:   60 * simtime.Second,
		MaxWait:   20 * simtime.Millisecond,
		WayOff:    5 * simtime.Second,
		DriftComp: driftComp,
	}
	sim := des.New(42)
	net := network.New(sim, network.NewFullMesh(4),
		network.NewUniformDelay(simtime.Millisecond, 5*simtime.Millisecond))
	tc := &testCluster{sim: sim, net: net}
	slopes := []float64{1 + 1e-3, 1 - 1e-3, 1 + 5e-4, 1 - 5e-4}
	for i := 0; i < 4; i++ {
		h := protocol.NewHarness(i, sim, net, clock.NewLocal(clock.NewDrifting(0, 0, slopes[i])))
		nodeCfg := cfg
		nodeCfg.FirstSync = simtime.Duration(i) * cfg.SyncInt / 4
		node := New(h, nodeCfg)
		tc.nodes = append(tc.nodes, node)
		node.Start()
	}
	return tc
}

func worstSpread(tc *testCluster, from, to, step simtime.Time) float64 {
	worst := 0.0
	for at := from; at <= to; at += step {
		tc.sim.RunUntil(at)
		if s := stats.Spread(tc.biases(at)); s > worst {
			worst = s
		}
	}
	return worst
}

func TestDriftCompensationReducesDeviation(t *testing.T) {
	// ρ=1e-3 with 60 s sync intervals: clocks diverge by up to ~0.12 s
	// between corrections without compensation. With the frequency feedback
	// the residual rate error shrinks and so does the steady-state spread.
	plain := driftCluster(t, false)
	comp := driftCluster(t, true)
	// Warm-up: let the estimator converge over ~20 syncs.
	plain.sim.RunUntil(1500)
	comp.sim.RunUntil(1500)
	plainWorst := worstSpread(plain, 1500, 7200, 30)
	compWorst := worstSpread(comp, 1500, 7200, 30)
	if compWorst >= plainWorst*0.7 {
		t.Fatalf("drift compensation ineffective: %v (comp) vs %v (plain)", compWorst, plainWorst)
	}
}

func TestDriftCompensationLearnsTheRate(t *testing.T) {
	comp := driftCluster(t, true)
	comp.sim.RunUntil(7200)
	// The fastest clock (slope 1+1e-3) should have learned a negative gain
	// close to cancelling its drift relative to the ensemble.
	g := comp.nodes[0].Harness().Clock().Gain()
	if g >= 0 {
		t.Fatalf("fast clock learned non-negative gain %v", g)
	}
	if math.Abs(g) > 1.5e-3 {
		t.Fatalf("gain %v exceeds plausible drift magnitude", g)
	}
}

func TestDriftCompensationSurvivesWayOffJump(t *testing.T) {
	// A smash + recovery must not poison the frequency estimator: the jump
	// resets the baseline instead of feeding a bogus rate sample.
	comp := driftCluster(t, true)
	comp.sim.RunUntil(1800)
	victim := comp.nodes[2]
	comp.sim.At(1801, func() { victim.Harness().Corrupt(smashBehavior{offset: 500}) })
	comp.sim.At(1830, func() { victim.Harness().Release() })
	comp.sim.RunUntil(7200)
	g := victim.Harness().Clock().Gain()
	if math.Abs(g) > 1.5e-3 {
		t.Fatalf("estimator poisoned by recovery jump: gain=%v", g)
	}
	// And the cluster still holds together.
	if s := stats.Spread(comp.biases(7200)); s > 0.1 {
		t.Fatalf("cluster spread after recovery: %v", s)
	}
}

func TestDriftCompDisabledLeavesGainZero(t *testing.T) {
	plain := driftCluster(t, false)
	plain.sim.RunUntil(3600)
	for i, n := range plain.nodes {
		if g := n.Harness().Clock().Gain(); g != 0 {
			t.Fatalf("node %d has gain %v with DriftComp off", i, g)
		}
	}
}
