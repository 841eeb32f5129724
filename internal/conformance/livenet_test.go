package conformance

import (
	"context"
	"testing"
	"time"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/livenet"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// TestCheckLivenetChaosRun refines a real concurrent cluster against the
// abstract spec: 5 nodes under seeded ambient packet chaos plus a scrambled
// crash window, spans collected in-process through ChaosConfig.SpanSink.
// The live path differs from the simulator in every awkward way the checker
// must absorb — Unix-seconds timestamps, nanosecond-truncated deltas, retry
// attempts producing several estimate spans per peer, and orphan spans from
// rounds cancelled at shutdown.
func TestCheckLivenetChaosRun(t *testing.T) {
	col, wayOff := chaosRun(t)
	rep, err := Check(col.Events(), Config{F: 1, WayOff: wayOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	for _, v := range rep.Violations {
		t.Errorf("live cluster failed refinement: %s", v.String())
	}
	if rep.Stats.Rounds == 0 || rep.Stats.Estimates == 0 {
		t.Fatalf("replay covered nothing: %+v", rep.Stats)
	}
	if rep.Stats.Nodes != 5 {
		t.Errorf("expected spans from all 5 nodes, got %d", rep.Stats.Nodes)
	}

	// The live round records what the simulated one does: every adjusting
	// round span carries the branch flag the checker pins, and every one of
	// its estimates — the self-estimate included — has a reading span.
	rounds, readings := 0, 0
	for _, e := range col.Events() {
		if e.Kind != obs.KindSpan {
			continue
		}
		switch e.Name {
		case "round":
			if _, skipped := e.Fields["skip"]; skipped {
				continue
			}
			rounds++
			if _, ok := e.Fields["wayoff"]; !ok {
				t.Fatalf("live round span without a wayoff flag: %+v", e)
			}
		case "reading":
			readings++
		}
	}
	if rounds == 0 || readings != 5*rounds {
		t.Fatalf("%d reading spans for %d adjusting rounds of 5 nodes, want %d", readings, rounds, 5*rounds)
	}
}

// chaosRun runs the seeded 5-node chaos cluster of the live tests with the
// collector attached, and returns the collected stream together with the
// nodes' WayOff in the wall seconds the stream is stamped in.
func chaosRun(t *testing.T) (*Collector, float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos campaign needs wall time")
	}
	scale := 25 * time.Millisecond
	p := analysis.Params{
		Rho:     1e-4,
		Delta:   0.25,
		Theta:   16,
		SyncInt: 2,
		MaxWait: 0.5,
	}
	schedule := adversary.GenNetSchedule(1, adversary.GenNetConfig{
		N: 5, F: 1,
		Theta:    p.Theta,
		Start:    12,
		Horizon:  40,
		Scramble: 20,
		Chaos: adversary.PacketChaos{
			DropP:    0.05,
			DelayMax: 0.05,
		},
	})
	col := &Collector{}
	res, err := livenet.RunChaos(context.Background(), livenet.ChaosConfig{
		N: 5, F: 1,
		Seed:     1,
		Schedule: schedule,
		Params:   p,
		Horizon:  40,
		Scale:    scale,
		Offsets:  []simtime.Duration{-0.4, 0.3, 0.1, -0.2, 0.4},
		SpanSink: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if verr := res.Err(); verr != nil {
		t.Fatalf("chaos run itself violated Theorem 5: %v", verr)
	}

	// The node configs carry WayOff in wall units (virtual bound × scale,
	// truncated to the nanosecond); the recorded spans are in wall seconds.
	return col, time.Duration(float64(res.Bounds.WayOff) * float64(scale)).Seconds()
}
