package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/clock"
	"clocksync/internal/core"
	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// shardObservables is everything the shard-count independence contract
// promises is identical: the run report, traffic totals, per-node protocol
// counters and every clock's step log.
type shardObservables struct {
	report    string
	msgs      int
	bytes     int
	stats     []core.Stats
	adjusts   [][]clock.Step
	deviation simtime.Duration
}

// observe runs the independence scenario on the given number of shards; 0
// and 1 both mean the one-shard engine. A hostile run loses 1 % of its messages and has node 3
// answer with a RandomLiar's noise over [20 s, 90 s).
func observe(t *testing.T, shards, samplePeers int, hostile bool) shardObservables {
	t.Helper()
	nodes := make([]*core.Node, 16)
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
			n := SyncBuilder(nil)(ctx).(*core.Node)
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
		report:    fmt.Sprintf("%#v", res.Report),
		msgs:      res.MsgsSent,
		bytes:     res.BytesSent,
		deviation: res.Report.MaxDeviation,
	}
	for _, n := range nodes {
		o.stats = append(o.stats, n.Stats())
		o.adjusts = append(o.adjusts, n.Harness().Clock().Steps())
	}
	return o
}

// TestShardCountIndependence is the determinism half of the sharding
// contract, and the proof that both engines run one execution: every draw
// is keyed by what it is about, so the serial engine and the sharded one at
// 1, 2, 3, 4 and 8 shards send the same messages, drop the same ones, hear
// the same lies and apply the same adjustments — full-mesh and sampled, with
// and without message loss and a RandomLiar — and their reports, measured
// from the clocks' trajectories, are float-identical in every field. Exact
// equality is intentional: every divergence in event ordering shows up here.
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
				if got.report != base.report {
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

// TestCheckedShardedMinute runs the online checker on the scale it was kept
// from while it read shared state during the run: an n=1024, k=31 minute on
// two shards, checked from the report's sweep after the run, with zero
// violations — and the same verdict and report as the serial engine.
func TestCheckedShardedMinute(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two n=1024 cluster minutes")
	}
	s := sampledMinute("checked-sharded", 1024, 10, 31, 2)
	s.Seed, s.Check = 1, true
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.ViolationsDropped != 0 || res.Report.MaxDeviation <= 0 {
		t.Fatalf("%d violations dropped, MaxDeviation %v", res.ViolationsDropped, res.Report.MaxDeviation)
	}
	s.ReuseSharded = nil
	serial, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", serial.Report) != fmt.Sprintf("%#v", res.Report) || len(serial.Violations) != 0 {
		t.Errorf("serial run: report %+v with %d violations, want the two-shard %+v",
			serial.Report, len(serial.Violations), res.Report)
	}
}

// roundSink counts each node's round events.
type roundSink struct{ rounds []int }

func (r *roundSink) Emit(e obs.Event) {
	if e.Kind == obs.KindRound {
		r.rounds[e.Node]++
	}
}

// TestObservedSampledMinute: a sink is accepted on a one-shard run of any
// size. An n=1024, k=31 checked minute with an event sink has zero
// violations, reports what the unobserved run reports, and records a round
// from every node.
func TestObservedSampledMinute(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two n=1024 cluster minutes")
	}
	s := sampledMinute("observed-sampled", 1024, 10, 31, 1)
	s.Seed, s.Check = 1, true
	plain, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	sink := &roundSink{rounds: make([]int, s.N)}
	s.EventSink = sink
	observed, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range observed.Violations {
		t.Errorf("violation: %s", v)
	}
	if observed.ViolationsDropped != 0 {
		t.Errorf("%d violations dropped", observed.ViolationsDropped)
	}
	if got, want := fmt.Sprintf("%#v", observed.Report), fmt.Sprintf("%#v", plain.Report); got != want {
		t.Errorf("observed run reports %s, the unobserved one %s", got, want)
	}
	for i, n := range sink.rounds {
		if n == 0 {
			t.Errorf("node %d recorded no round event", i)
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
