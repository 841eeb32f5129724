package scenario

import (
	"math/rand"
	"strings"
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// shardObservables is everything the shard-count independence contract
// promises is identical: the run report, traffic totals, and per-node
// protocol counters.
type shardObservables struct {
	report    string
	msgs      int
	bytes     int
	syncs     []int
	deltas    []simtime.Duration
	deviation simtime.Duration
}

func observe(t *testing.T, shards, samplePeers int) shardObservables {
	t.Helper()
	res, err := Run(Scenario{
		Name:        "shard-independence",
		Seed:        1234,
		N:           16,
		F:           2,
		Duration:    2 * simtime.Minute,
		Theta:       2 * simtime.Minute,
		Rho:         1e-4,
		Delay:       network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond),
		InitSpread:  100 * simtime.Millisecond,
		SyncInt:     10 * simtime.Second,
		Shards:      shards,
		SamplePeers: samplePeers,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := shardObservables{
		report:    res.Report.MaxDeviation.String() + "/" + res.Report.MeanDeviation.String() + "/" + res.Report.MaxAdjustment.String() + "/" + res.Report.MaxDiscontinuity.String(),
		msgs:      res.MsgsSent,
		bytes:     res.BytesSent,
		deviation: res.Report.MaxDeviation,
	}
	for _, st := range res.SyncStats {
		o.syncs = append(o.syncs, st.Syncs)
		o.deltas = append(o.deltas, st.LastDelta)
	}
	return o
}

// TestShardCountIndependence is the determinism half of the sharding
// contract: the same seed must produce identical observable results —
// reports, per-node stats, exact traffic counts — for shard counts 1, 4
// and 8, full-mesh and sampled alike. Exact float equality is intentional:
// every divergence in event ordering shows up here.
func TestShardCountIndependence(t *testing.T) {
	for _, samplePeers := range []int{0, 7} {
		base := observe(t, 1, samplePeers)
		if base.msgs == 0 || base.syncs[0] == 0 {
			t.Fatalf("samplePeers=%d: baseline run did nothing (msgs=%d)", samplePeers, base.msgs)
		}
		if base.deviation <= 0 {
			t.Fatalf("samplePeers=%d: baseline deviation %v not positive", samplePeers, base.deviation)
		}
		for _, shards := range []int{4, 8} {
			got := observe(t, shards, samplePeers)
			if got.report != base.report {
				t.Errorf("samplePeers=%d shards=%d: report %s, want %s", samplePeers, shards, got.report, base.report)
			}
			if got.msgs != base.msgs || got.bytes != base.bytes {
				t.Errorf("samplePeers=%d shards=%d: traffic %d msgs/%d bytes, want %d/%d",
					samplePeers, shards, got.msgs, got.bytes, base.msgs, base.bytes)
			}
			for i := range base.syncs {
				if got.syncs[i] != base.syncs[i] || got.deltas[i] != base.deltas[i] {
					t.Errorf("samplePeers=%d shards=%d node %d: syncs/lastDelta %d/%v, want %d/%v",
						samplePeers, shards, i, got.syncs[i], got.deltas[i], base.syncs[i], base.deltas[i])
				}
			}
		}
	}
}

// TestSamplingCutsTraffic: sparse estimation must send Θ(k/n) of the
// full-mesh message volume and still converge.
func TestSamplingCutsTraffic(t *testing.T) {
	full := observe(t, 1, 0)
	sampled := observe(t, 1, 7)
	if sampled.msgs >= full.msgs {
		t.Fatalf("sampling sent %d msgs, full mesh %d — no reduction", sampled.msgs, full.msgs)
	}
	// 15 peers full mesh vs 7 sampled: expect roughly half the traffic.
	if ratio := float64(sampled.msgs) / float64(full.msgs); ratio > 0.65 {
		t.Errorf("sampled/full traffic ratio %.2f, want ≤ 0.65", ratio)
	}
	// Precision degrades but must stay in the same order of magnitude.
	if sampled.deviation > 10*full.deviation {
		t.Errorf("sampled deviation %v blew past full-mesh %v", sampled.deviation, full.deviation)
	}
}

// TestShardedIncompatibleSurfaces: the serial-only surfaces must be
// rejected, not silently ignored.
func TestShardedIncompatibleSurfaces(t *testing.T) {
	base := Scenario{
		Name: "incompat", Seed: 1, N: 7, F: 2,
		Duration: simtime.Minute, Theta: 2 * simtime.Minute,
		Shards: 2,
	}
	bad := []func(*Scenario){
		func(s *Scenario) { s.Check = true },
		func(s *Scenario) { s.EventSink = obs.NewRing(1) },
		func(s *Scenario) { s.ReuseSim = des.New(0) },
	}
	for i, mutate := range bad {
		s := base
		mutate(&s)
		if _, err := Run(s); err == nil {
			t.Errorf("case %d: sharded run accepted a serial-only surface", i)
		}
	}
}

// TestShardedLyingDelayPanicsOnCaller: a delay model whose MinBound
// overstates its true minimum is refused at the offending send, and the
// refusal reaches Run's caller as a panic it can recover — not a crash on
// whichever shard worker happened to run the sender.
func TestShardedLyingDelayPanicsOnCaller(t *testing.T) {
	lying := network.DelayFunc{
		Fn:       func(_, _ int, _ *rand.Rand) simtime.Duration { return simtime.Millisecond },
		BoundVal: 50 * simtime.Millisecond,
		MinVal:   5 * simtime.Millisecond, // lie: claims ≥ 5 ms, samples 1 ms
	}
	var got any
	func() {
		defer func() { got = recover() }()
		_, err := Run(Scenario{
			Name: "lying-delay", Seed: 1, N: 7, F: 2,
			Duration: simtime.Minute, Theta: 2 * simtime.Minute,
			Delay: lying, Shards: 2,
		})
		t.Errorf("sharded run accepted a lying delay model (err = %v)", err)
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "cross-shard delay") || !strings.Contains(msg, "below lookahead") {
		t.Fatalf("recovered %v, want the lookahead guard's message", got)
	}
}
