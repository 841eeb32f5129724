package baseline

import (
	"math"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

func baseScenario(builder scenario.Builder) scenario.Scenario {
	return scenario.Scenario{
		Name:       "baseline-test",
		Seed:       13,
		N:          7,
		F:          2,
		Duration:   10 * simtime.Minute,
		Theta:      5 * simtime.Minute,
		Rho:        1e-4,
		InitSpread: 100 * simtime.Millisecond,
		Builder:    builder,
	}
}

func lastGoodSpread(res *scenario.Result) float64 {
	samples := res.Recorder.Samples()
	return float64(samples[len(samples)-1].Deviation)
}

func lastBias(res *scenario.Result, id int) float64 {
	samples := res.Recorder.Samples()
	return float64(samples[len(samples)-1].Biases[id])
}

func TestBoundedCFConvergesWhenClose(t *testing.T) {
	res, err := scenario.Run(baseScenario(BoundedCFBuilder(0)))
	if err != nil {
		t.Fatal(err)
	}
	if s := lastGoodSpread(res); s > 0.3 {
		t.Fatalf("BoundedCF did not hold the cluster together: spread=%v", s)
	}
}

func TestBoundedCFRecoveryIsSlowOrStalls(t *testing.T) {
	// One node starts 60 s away. With correction clamped to 4ε ≈ 0.4 s per
	// 10 s round, closing 60 s takes ≥ 25 minutes; in a 10-minute run the
	// node must still be far out — while Sync recovers the same offset in a
	// handful of rounds (TestFarNodeTriggersWayOffAndRecovers in core).
	s := baseScenario(BoundedCFBuilder(0))
	s.InitSpread = 0
	s.InitialBiases = []simtime.Duration{0, 0, 0, 0, 0, 0, 60 * simtime.Second}
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if b := lastBias(res, 6); b < 30 {
		t.Fatalf("bounded correction recovered too fast: bias=%v (clamp not effective?)", b)
	}
	syncRes, err := scenario.Run(func() scenario.Scenario {
		s2 := baseScenario(nil)
		s2.InitSpread = 0
		s2.InitialBiases = []simtime.Duration{0, 0, 0, 0, 0, 0, 60 * simtime.Second}
		return s2
	}())
	if err != nil {
		t.Fatal(err)
	}
	if b := lastBias(syncRes, 6); math.Abs(b) > 0.5 {
		t.Fatalf("Sync should recover 60 s in 10 min: bias=%v", b)
	}
}

func TestBoundedCFClampCounter(t *testing.T) {
	s := baseScenario(nil)
	var node *BoundedCF
	s.Builder = func(ctx scenario.BuildContext) scenario.Starter {
		st := BoundedCFBuilder(10 * simtime.Millisecond)(ctx)
		if ctx.Index == 6 {
			node = st.(*BoundedCF)
		}
		return st
	}
	s.InitSpread = 0
	s.InitialBiases = []simtime.Duration{0, 0, 0, 0, 0, 0, 10 * simtime.Second}
	if _, err := scenario.Run(s); err != nil {
		t.Fatal(err)
	}
	if node.Clamped == 0 {
		t.Fatal("far node's corrections were never clamped")
	}
	if node.Syncs == 0 {
		t.Fatal("node never synced")
	}
}

func TestRoundMidpointConvergesWhenInPhase(t *testing.T) {
	res, err := scenario.Run(baseScenario(RoundMidpointBuilder()))
	if err != nil {
		t.Fatal(err)
	}
	if s := lastGoodSpread(res); s > 0.3 {
		t.Fatalf("RoundMidpoint did not converge: spread=%v", s)
	}
}

func TestRoundMidpointCannotRecoverSmashedClock(t *testing.T) {
	// The adversary smashes a node's clock by +500 s (≈ 50 rounds ahead).
	// After release the node requests round-550 clocks; peers near round 60
	// refuse, so it never rejoins — the §3.3 failure mode of round-based
	// protocols. The Sync control below recovers the identical scenario.
	mk := func(builder scenario.Builder) scenario.Scenario {
		s := baseScenario(builder)
		s.Duration = 20 * simtime.Minute
		s.Theta = 4 * simtime.Minute
		s.Adversary = adversary.Static([]int{6}, 60, 90,
			func(int) protocol.Behavior {
				return adversary.ClockSmash{Offset: 500 * simtime.Second, Quiet: true}
			})
		return s
	}
	res, err := scenario.Run(mk(RoundMidpointBuilder()))
	if err != nil {
		t.Fatal(err)
	}
	if b := lastBias(res, 6); b < 400 {
		t.Fatalf("round-based protocol unexpectedly recovered: bias=%v", b)
	}
	if len(res.Report.Recoveries) != 1 || res.Report.Recoveries[0].Ok {
		t.Fatal("recovery should be reported as failed")
	}

	syncRes, err := scenario.Run(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !syncRes.Report.Recoveries[0].Ok {
		t.Fatal("Sync control failed to recover the same smash")
	}
}

func TestRoundMidpointAnswersAdjacentRoundsOnly(t *testing.T) {
	s := baseScenario(RoundMidpointBuilder())
	s.Duration = 2 * simtime.Minute
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// In-phase cluster: every node must complete most of its rounds.
	if s := lastGoodSpread(res); s > 0.5 {
		t.Fatalf("spread=%v", s)
	}
}

func TestSrikanthTouegHoldsCadence(t *testing.T) {
	res, err := scenario.Run(baseScenario(SrikanthTouegBuilder()))
	if err != nil {
		t.Fatal(err)
	}
	// ST synchronizes logical round starts; absolute deviation between
	// resyncs is bounded by drift over a period plus delivery spread.
	if s := lastGoodSpread(res); s > 0.5 {
		t.Fatalf("SrikanthToueg diverged: spread=%v", s)
	}
}

func TestSrikanthTouegRecoveryAsymmetry(t *testing.T) {
	mk := func(offset simtime.Duration) scenario.Scenario {
		s := baseScenario(SrikanthTouegBuilder())
		s.Duration = 20 * simtime.Minute
		s.Theta = 4 * simtime.Minute
		s.Adversary = adversary.Static([]int{6}, 60, 90,
			func(int) protocol.Behavior {
				return adversary.ClockSmash{Offset: offset, Quiet: true}
			})
		return s
	}
	// Smashed backwards: the next tick quorum drags the node forward within
	// about one period.
	back, err := scenario.Run(mk(-500 * simtime.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b := lastBias(back, 6); math.Abs(b) > 1 {
		t.Fatalf("backward smash not recovered: bias=%v", b)
	}
	rvBack := back.Report.Recoveries[0]
	if !rvBack.Ok || rvBack.Time() > simtime.Duration(60) {
		t.Fatalf("backward recovery should be fast: %+v", rvBack)
	}
	// Smashed forward by X: the node ignores "stale" ticks until real time
	// catches up with its clock — recovery linear in X (here ≈ 500 s),
	// versus Sync's logarithmic recovery (a few SyncInts).
	fwd, err := scenario.Run(mk(500 * simtime.Second))
	if err != nil {
		t.Fatal(err)
	}
	rvFwd := fwd.Report.Recoveries[0]
	if !rvFwd.Ok {
		t.Fatalf("forward smash should recover once real time catches up: %+v", rvFwd)
	}
	if rvFwd.Time() < simtime.Duration(400) {
		t.Fatalf("forward recovery should take ≈ the 500 s offset, got %v", rvFwd.Time())
	}
}

func TestBroadcastJoinConverges(t *testing.T) {
	res, err := scenario.Run(baseScenario(BroadcastJoinBuilder()))
	if err != nil {
		t.Fatal(err)
	}
	// One-way estimates are cruder than RTT pings; allow a looser envelope.
	if s := lastGoodSpread(res); s > 0.6 {
		t.Fatalf("BroadcastJoin diverged: spread=%v", s)
	}
}

func TestBroadcastJoinMessageOverhead(t *testing.T) {
	// Broadcast flooding must cost Θ(n) times more messages than Sync for
	// the same sync interval.
	bj, err := scenario.Run(baseScenario(BroadcastJoinBuilder()))
	if err != nil {
		t.Fatal(err)
	}
	sy, err := scenario.Run(baseScenario(nil))
	if err != nil {
		t.Fatal(err)
	}
	if bj.MsgsSent < 2*sy.MsgsSent {
		t.Fatalf("broadcast overhead not visible: %d vs %d msgs", bj.MsgsSent, sy.MsgsSent)
	}
	if bj.BytesSent < 3*sy.BytesSent {
		t.Fatalf("signature-chain bytes not visible: %d vs %d bytes", bj.BytesSent, sy.BytesSent)
	}
}

func TestNTPSlewConverges(t *testing.T) {
	res, err := scenario.Run(baseScenario(NTPSlewBuilder(2)))
	if err != nil {
		t.Fatal(err)
	}
	if s := lastGoodSpread(res); s > 0.3 {
		t.Fatalf("NTPSlew diverged: spread=%v", s)
	}
}

func TestNTPSlewStepsOnLargeOffset(t *testing.T) {
	s := baseScenario(nil)
	var node *NTPSlew
	s.Builder = func(ctx scenario.BuildContext) scenario.Starter {
		st := NTPSlewBuilder(2)(ctx)
		if ctx.Index == 6 {
			node = st.(*NTPSlew)
		}
		return st
	}
	s.InitSpread = 0
	s.InitialBiases = []simtime.Duration{0, 0, 0, 0, 0, 0, 30 * simtime.Second}
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if node.Steps == 0 {
		t.Fatal("30 s offset did not trigger a step")
	}
	if b := lastBias(res, 6); math.Abs(b) > 0.5 {
		t.Fatalf("NTP step did not recover the node: bias=%v", b)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"boundedcf": func() { NewBoundedCF(nil, BoundedCFConfig{}, nil) },
		"roundmid":  func() { NewRoundMidpoint(nil, RoundMidpointConfig{RoundLen: 1, MaxWait: 1}, nil) },
		"st":        func() { NewSrikanthToueg(nil, STConfig{}, nil) },
		"bjoin":     func() { NewBroadcastJoin(nil, BroadcastJoinConfig{}, nil) },
		"ntp":       func() { NewNTPSlew(nil, NTPConfig{}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
