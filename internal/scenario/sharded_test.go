package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/core"
	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// shardObservables is everything the shard-count independence contract
// promises is identical: the run report, traffic totals, per-node protocol
// counters and every node's adjustment log.
type shardObservables struct {
	report    string
	msgs      int
	bytes     int
	stats     []core.Stats
	adjusts   [][]adjustment
	deviation simtime.Duration
}

type adjustment struct {
	at    simtime.Time
	delta simtime.Duration
}

// loggedNode is a Sync node that logs its own adjustments: Start wraps the
// hook the scenario installed, so it logs exactly what the recorder logs.
type loggedNode struct {
	*core.Node
	h   *protocol.Harness
	log []adjustment
}

func (n *loggedNode) Start() {
	hook := n.h.OnAdjust
	n.h.OnAdjust = func(at simtime.Time, delta simtime.Duration) {
		n.log = append(n.log, adjustment{at, delta})
		hook(at, delta)
	}
	n.Node.Start()
}

// observe runs the independence scenario on the serial engine (shards 0) or
// the sharded one. A hostile run loses 1 % of its messages and has node 3
// answer with a RandomLiar's noise over [20 s, 90 s).
func observe(t *testing.T, shards, samplePeers int, hostile bool) shardObservables {
	t.Helper()
	nodes := make([]*loggedNode, 16)
	s := Scenario{
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
		Builder: func(ctx BuildContext) Starter {
			n := &loggedNode{Node: SyncBuilder(nil)(ctx).(*core.Node), h: ctx.Harness}
			nodes[ctx.Index] = n
			return n
		},
	}
	if hostile {
		s.DropProb = 0.01
		s.Adversary = adversary.Schedule{Corruptions: []adversary.Corruption{{
			Node: 3, From: simtime.Time(20 * simtime.Second), To: simtime.Time(90 * simtime.Second),
			Behavior: adversary.RandomLiar{Amplitude: 200 * simtime.Millisecond},
		}}}
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	o := shardObservables{
		report:    res.Report.MaxDeviation.String() + "/" + res.Report.MeanDeviation.String() + "/" + res.Report.MaxAdjustment.String() + "/" + res.Report.MaxDiscontinuity.String(),
		msgs:      res.MsgsSent,
		bytes:     res.BytesSent,
		deviation: res.Report.MaxDeviation,
	}
	for _, n := range nodes {
		o.stats = append(o.stats, n.Stats())
		o.adjusts = append(o.adjusts, n.log)
	}
	return o
}

// TestShardCountIndependence is the determinism half of the sharding
// contract, and the proof that both engines run one execution: every draw
// is keyed by what it is about, so the serial engine and the sharded one at
// 1, 2, 3, 4 and 8 shards send the same messages, drop the same ones, hear
// the same lies and apply the same adjustments — full-mesh and sampled, with
// and without message loss and a RandomLiar. Reports are compared across
// shard counts only: the serial engine also samples at every adjustment, so
// its report sees more instants. Exact equality is intentional: every
// divergence in event ordering shows up here.
func TestShardCountIndependence(t *testing.T) {
	for _, hostile := range []bool{false, true} {
		for _, samplePeers := range []int{0, 7} {
			name := fmt.Sprintf("samplePeers=%d hostile=%v", samplePeers, hostile)
			base := observe(t, 1, samplePeers, hostile)
			if base.msgs == 0 || base.stats[0].Syncs == 0 {
				t.Fatalf("%s: baseline run did nothing (msgs=%d)", name, base.msgs)
			}
			if base.deviation <= 0 {
				t.Fatalf("%s: baseline deviation %v not positive", name, base.deviation)
			}
			for _, shards := range []int{0, 2, 3, 4, 8} {
				got := observe(t, shards, samplePeers, hostile)
				if shards > 0 && got.report != base.report {
					t.Errorf("%s shards=%d: report %s, want %s", name, shards, got.report, base.report)
				}
				if got.msgs != base.msgs || got.bytes != base.bytes {
					t.Errorf("%s shards=%d: traffic %d msgs/%d bytes, want %d/%d",
						name, shards, got.msgs, got.bytes, base.msgs, base.bytes)
				}
				for i := range base.stats {
					if got.stats[i] != base.stats[i] {
						t.Errorf("%s shards=%d node %d: stats %+v, want %+v", name, shards, i, got.stats[i], base.stats[i])
					}
					if !slices.Equal(got.adjusts[i], base.adjusts[i]) {
						t.Errorf("%s shards=%d node %d: %d adjustments differ from the %d at one shard",
							name, shards, i, len(got.adjusts[i]), len(base.adjusts[i]))
					}
				}
			}
		}
	}
}

// TestSamplingCutsTraffic: sparse estimation must send Θ(k/n) of the
// full-mesh message volume and still converge.
func TestSamplingCutsTraffic(t *testing.T) {
	full := observe(t, 1, 0, false)
	sampled := observe(t, 1, 7, false)
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
		Fn:       func(_, _ int, _ *network.SplitMix64) simtime.Duration { return simtime.Millisecond },
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
