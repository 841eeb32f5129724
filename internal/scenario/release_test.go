package scenario_test

import (
	"fmt"
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/campaign"
	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// TestReleasedRunsMatchFreshRuns: a run that reserves the storage an earlier
// run released — one of another processor count, longer or shorter — records
// the same samples and report as a run on storage of its own. The reference
// runs come first, before this test releases anything. A reused two-shard
// engine, which keeps its lanes' envelopes, outboxes and lists across Reset,
// is held to the same standard (shardedReuseMatchesFresh).
func TestReleasedRunsMatchFreshRuns(t *testing.T) {
	shardedReuseMatchesFresh(t)

	runs := []struct {
		n        int
		duration simtime.Duration
	}{
		{13, 10 * simtime.Minute}, {7, 3 * simtime.Minute}, {13, 3 * simtime.Minute},
		{7, 10 * simtime.Minute}, {7, 3 * simtime.Minute},
	}
	scenarioOf := func(i int) scenario.Scenario {
		r := runs[i]
		return campaign.Config{N: r.n, Duration: r.duration}.Scenario(int64(i + 1))
	}
	label := func(i int) string { return fmt.Sprintf("n=%d %v", runs[i].n, runs[i].duration) }

	want := make([]string, len(runs))
	for i := range runs {
		res, err := scenario.Run(scenarioOf(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(label(i), res)
	}
	sim := des.New(0)
	for pass := 0; pass < 2; pass++ {
		for i := range runs {
			s := scenarioOf(i)
			s.ReuseSim = sim
			res, err := scenario.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(label(i), res); got != want[i] {
				t.Errorf("pass %d, after releasing %s: measured\n%s want\n%s", pass, label((i+len(runs)-1)%len(runs)), got, want[i])
			}
			report, violations := res.Report, len(res.Violations)
			res.Release()
			if res.Recorder != nil {
				t.Fatal("Result.Release left the recorder on the result")
			}
			if res.Report.MaxDeviation != report.MaxDeviation || len(res.Violations) != violations {
				t.Fatal("Result.Release changed the report or the violations")
			}
		}
	}
}

// shardedReuseMatchesFresh runs, back to back on one reused two-shard
// engine and twice over, a sampled n=64, k=7 minute with 1 % drops and a
// RandomLiar; a run whose horizon leaves cross-shard messages in flight; and
// a run cut mid-window by a panicking send, which leaves messages in the
// outboxes. The first two must report exactly what they report on a fresh
// engine — report, traffic and events fired — so nothing the engine keeps
// may carry a message, a payload or a draw from one run into the next.
func shardedReuseMatchesFresh(t *testing.T) {
	const lookahead = 5 * simtime.Millisecond
	var inFlight *network.Network
	runs := []scenario.Scenario{{
		Name: "sampled", Seed: 3, N: 64, F: 3, SamplePeers: 7,
		Duration: simtime.Minute, Theta: 2 * simtime.Minute, Rho: 1e-4,
		SyncInt: 10 * simtime.Second, InitSpread: 100 * simtime.Millisecond, DropProb: 0.01,
		Adversary: adversary.Schedule{Corruptions: []adversary.Corruption{{
			Node: 5, From: simtime.Time(10 * simtime.Second), To: simtime.Time(40 * simtime.Second),
			Behavior: adversary.RandomLiar{Amplitude: 200 * simtime.Millisecond},
		}}},
	}, {
		Name: "in-flight", Seed: 4, N: 16, F: 2,
		Duration: 30*simtime.Second + 20*simtime.Millisecond, Theta: 2 * simtime.Minute, Rho: 1e-4,
		SyncInt: 10 * simtime.Second, InitSpread: 100 * simtime.Millisecond,
		Builder: func(ctx scenario.BuildContext) scenario.Starter {
			inFlight = ctx.Harness.Net()
			return scenario.SyncBuilder(nil)(ctx)
		},
	}}
	measure := func(s scenario.Scenario, ps *des.ShardedSim) string {
		s.ReuseSharded = ps
		res, err := scenario.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v msgs=%d fired=%d", res.Report, res.MsgsSent, ps.Fired())
	}
	want := make([]string, len(runs))
	for i, s := range runs {
		want[i] = measure(s, des.NewSharded(0, 2, lookahead))
	}
	if n := inFlight.TotalSent() - inFlight.TotalDelivered() - inFlight.TotalDropped(); n == 0 {
		t.Fatal("the in-flight run ended with no message in flight")
	}

	// The cut run panics at node 14's first message to node 13, on the other
	// shard, which takes less than the lookahead; what the panicking window
	// sent across shards before it waits in the outboxes.
	cut := runs[1]
	cut.Name, cut.Builder, cut.Duration = "cut", nil, simtime.Minute
	delay := network.NewUniformDelay(lookahead, 50*simtime.Millisecond)
	cut.Delay = network.DelayFunc{
		Fn: func(from, to int, src *network.SplitMix64) simtime.Duration {
			if from == 14 && to == 13 {
				return simtime.Millisecond
			}
			return delay.Sample(from, to, src)
		},
		BoundVal: delay.Bound(),
		MinVal:   lookahead,
	}
	ps := des.NewSharded(0, 2, lookahead)
	for pass := 0; pass < 2; pass++ {
		for i, s := range runs {
			if got := measure(s, ps); got != want[i] {
				t.Errorf("pass %d, reused engine: %s reported\n%s\nwant\n%s", pass, s.Name, got, want[i])
			}
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "below lookahead") {
					t.Fatalf("pass %d: the cut run ended with %v, want the lookahead panic", pass, r)
				}
			}()
			cut.ReuseSharded = ps
			scenario.Run(cut)
		}()
	}
}
