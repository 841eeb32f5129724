package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"clocksync/internal/adversary"
	"clocksync/internal/core"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

func baseScenario() Scenario {
	return Scenario{
		Name:       "test",
		Seed:       7,
		N:          7,
		F:          2,
		Duration:   10 * simtime.Minute,
		Theta:      5 * simtime.Minute,
		Rho:        1e-4,
		InitSpread: 200 * simtime.Millisecond,
	}
}

func TestRunFaultFreeMeetsBound(t *testing.T) {
	res, err := Run(baseScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxDeviation > res.Bounds.MaxDeviation {
		t.Fatalf("measured deviation %v exceeds Theorem 5 bound %v",
			res.Report.MaxDeviation, res.Bounds.MaxDeviation)
	}
	if res.Report.MaxDeviation <= 0 {
		t.Fatal("suspiciously zero deviation")
	}
	if res.MsgsSent == 0 {
		t.Fatal("no traffic recorded")
	}
	for i, st := range res.SyncStats {
		if st == nil || st.Syncs == 0 {
			t.Fatalf("node %d ran no Syncs: %+v", i, st)
		}
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	a, err := Run(baseScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseScenario())
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.MaxDeviation != b.Report.MaxDeviation ||
		a.MsgsSent != b.MsgsSent ||
		a.Report.MaxDiscontinuity != b.Report.MaxDiscontinuity {
		t.Fatalf("same seed, different results: %+v vs %+v", a.Report, b.Report)
	}
	s := baseScenario()
	s.Seed = 8
	c, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.MaxDeviation == c.Report.MaxDeviation && a.MsgsSent == c.MsgsSent {
		t.Fatal("different seed produced identical run — RNG not threaded")
	}
}

func TestRunWithMobileAdversary(t *testing.T) {
	s := baseScenario()
	s.Duration = 30 * simtime.Minute
	s.Theta = 2 * simtime.Minute
	s.Adversary = adversary.Rotate(s.N, s.F, simtime.Time(3*simtime.Minute),
		30*simtime.Second, s.Theta, 8,
		func(int) protocol.Behavior { return adversary.ClockSmash{Offset: 30 * simtime.Second} })
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxDeviation > res.Bounds.MaxDeviation {
		t.Fatalf("deviation %v exceeds bound %v under mobile adversary",
			res.Report.MaxDeviation, res.Bounds.MaxDeviation)
	}
	if len(res.Report.Recoveries) != 8 {
		t.Fatalf("expected 8 recovery records, got %d", len(res.Report.Recoveries))
	}
	for _, rv := range res.Report.Recoveries {
		if !rv.Ok {
			t.Fatalf("node %d released at %v never recovered", rv.Node, rv.ReleasedAt)
		}
		if rv.Time() > simtime.Duration(float64(s.Theta)) {
			t.Fatalf("node %d recovery took %v > Θ", rv.Node, rv.Time())
		}
	}
}

func TestRunRejectsOverpoweredAdversary(t *testing.T) {
	s := baseScenario()
	s.Adversary = adversary.Static([]int{0, 1, 2}, 10, 20, // 3 > f=2
		func(int) protocol.Behavior { return adversary.Crash{} })
	if _, err := Run(s); err == nil {
		t.Fatal("over-powered adversary accepted")
	}
	s.UnsafeAdversary = true
	if _, err := Run(s); err != nil {
		t.Fatalf("UnsafeAdversary must bypass validation: %v", err)
	}
}

func TestRunValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"zero N", func(s *Scenario) { s.N = 0 }},
		{"zero duration", func(s *Scenario) { s.Duration = 0 }},
		{"n<3f+1", func(s *Scenario) { s.F = 3 }},
		{"K too small", func(s *Scenario) { s.Theta = 30 * simtime.Second }},
		{"topology mismatch", func(s *Scenario) { s.Topology = network.NewFullMesh(3) }},
	}
	for _, tc := range cases {
		s := baseScenario()
		tc.mutate(&s)
		if _, err := Run(s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// A loss rate is a probability: Run refuses NaN and anything outside [0, 1]
// rather than running them as a lossless or a lossy network.
func TestRunRefusesBadDropProb(t *testing.T) {
	for _, p := range []float64{math.NaN(), -0.5, math.Inf(-1), 1.5, math.Inf(1)} {
		s := baseScenario()
		s.DropProb = p
		if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "DropProb") {
			t.Errorf("DropProb %v: got %v, want an error naming DropProb", p, err)
		}
	}
	for _, p := range []float64{0, 0.3, 1} {
		s := baseScenario()
		s.DropProb = p
		if _, err := Run(s); err != nil {
			t.Errorf("DropProb %v refused: %v", p, err)
		}
	}
}

func TestSkipValidationAllowsOutOfModelRuns(t *testing.T) {
	s := baseScenario()
	s.F = 3 // n = 3f−2 < 3f+1: out of model
	s.SkipValidation = true
	if _, err := Run(s); err != nil {
		t.Fatalf("SkipValidation run failed: %v", err)
	}
}

func TestExplicitParametersRespected(t *testing.T) {
	s := baseScenario()
	s.SyncInt = 5 * simtime.Second
	s.MaxWait = 200 * simtime.Millisecond
	s.WayOff = 3 * simtime.Second
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// With SyncInt 5s over 600s each node completes ≈ 120 Syncs.
	for i, st := range res.SyncStats {
		if st.Syncs < 100 || st.Syncs > 130 {
			t.Fatalf("node %d: %d Syncs with 5 s interval over 10 min", i, st.Syncs)
		}
	}
}

func TestCustomBuilderIsUsed(t *testing.T) {
	s := baseScenario()
	s.Duration = 2 * simtime.Minute
	built := 0
	s.Builder = func(ctx BuildContext) Starter {
		built++
		return SyncBuilder(nil)(ctx)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if built != s.N {
		t.Fatalf("builder called %d times, want %d", built, s.N)
	}
	// SyncBuilder produces *core.Node, so stats must be populated.
	for i, st := range res.SyncStats {
		if st == nil {
			t.Fatalf("node %d stats missing", i)
		}
	}
}

func TestSyncBuilderMutation(t *testing.T) {
	s := baseScenario()
	s.Duration = 2 * simtime.Minute
	var sawWayOff simtime.Duration
	s.Builder = SyncBuilder(func(cfg *core.Config, ctx BuildContext) {
		cfg.WayOff = 42 * simtime.Second
		sawWayOff = cfg.WayOff
	})
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if sawWayOff != 42*simtime.Second {
		t.Fatal("mutation hook not applied")
	}
}

func TestInitialBiasesAndSlopesPinned(t *testing.T) {
	s := baseScenario()
	s.N, s.F = 4, 1
	s.InitialBiases = []simtime.Duration{1, 2, 3, 4}
	s.Slopes = []float64{1, 1, 1, 1}
	s.Duration = simtime.Minute
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Recorder.Samples()[0]
	// At the first sample (t=1s, before most nodes synced) biases are near
	// their pinned values.
	for i, want := range []float64{1, 2, 3, 4} {
		if math.Abs(float64(first.Biases[i])-want) > 1.6 {
			t.Fatalf("bias %d: got %v, want ≈%v", i, first.Biases[i], want)
		}
	}
}

func TestTickGranularityRun(t *testing.T) {
	// Quantized hardware clocks (1 ms ticks) must still synchronize within
	// the bound — the tick is two orders below δ = 50 ms.
	s := baseScenario()
	s.Tick = simtime.Millisecond
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxDeviation > res.Bounds.MaxDeviation {
		t.Fatalf("ticking clocks broke the bound: %v > %v",
			res.Report.MaxDeviation, res.Bounds.MaxDeviation)
	}
}

func TestGraphTopologyRun(t *testing.T) {
	// The protocol must run on a non-complete graph (nodes only estimate
	// neighbors). Two cliques of 3f+1 joined by a matching: within each
	// clique, deviation must stay small.
	f := 1
	g := network.NewTwoCliques(f)
	s := baseScenario()
	s.N = g.N()
	s.F = f
	s.Topology = g
	s.Duration = 10 * simtime.Minute
	s.InitSpread = 100 * simtime.Millisecond
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Recorder.Samples()[len(res.Recorder.Samples())-1]
	size := 3*f + 1
	for c := 0; c < 2; c++ {
		var cliqueBiases []float64
		for i := c * size; i < (c+1)*size; i++ {
			cliqueBiases = append(cliqueBiases, float64(last.Biases[i]))
		}
		sp := maxf(cliqueBiases) - minf(cliqueBiases)
		if sp > float64(res.Bounds.MaxDeviation) {
			t.Fatalf("clique %d intra-deviation %v exceeds bound", c, sp)
		}
	}
}

func minf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// TestRunRefusesBadLengths: a run length that never ends and clock settings
// that would panic in the clock or the event queue, be silently ignored, or
// take readings float64 seconds resolve more coarsely than
// analysis.Resolution of ε, are refused with an error naming the setting;
// biases of 1e9 s still run. Each case runs under a
// deadline, since a NaN or infinite Duration used to spin forever.
func TestRunRefusesBadLengths(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		set  func(*Scenario)
	}{
		{"Duration", func(s *Scenario) { s.Duration = simtime.Duration(nan) }},
		{"Duration", func(s *Scenario) { s.Duration = simtime.Duration(inf) }},
		{"Duration", func(s *Scenario) { s.Duration = -simtime.Minute }},
		{"SamplePeriod", func(s *Scenario) { s.SamplePeriod = -simtime.Second }},
		{"SamplePeriod", func(s *Scenario) { s.SamplePeriod = simtime.Duration(nan) }},
		{"Slopes[1]", func(s *Scenario) { s.Slopes = []float64{1, nan} }},
		{"Slopes[0]", func(s *Scenario) { s.Slopes = []float64{0} }},
		{"Slopes[2]", func(s *Scenario) { s.Slopes = []float64{1, 1, -1} }},
		{"InitialBiases[3]", func(s *Scenario) { s.InitialBiases = []simtime.Duration{0, 0, 0, simtime.Duration(nan)} }},
		{"Tick", func(s *Scenario) { s.Tick = -simtime.Millisecond }},
		{"Tick", func(s *Scenario) { s.Tick = simtime.Duration(nan) }},
		{"InitSpread", func(s *Scenario) { s.InitSpread = -simtime.Second }},
		{"InitSpread", func(s *Scenario) { s.InitSpread = simtime.Duration(nan) }},
		{"InitialBiases[0]", func(s *Scenario) { s.InitialBiases = []simtime.Duration{1e15} }},
		{"InitialBiases[1]", func(s *Scenario) { s.InitialBiases = []simtime.Duration{0, -1e16} }},
		{"InitialBiases[0]", func(s *Scenario) { s.InitialBiases = []simtime.Duration{1e300} }},
		{"InitSpread", func(s *Scenario) { s.InitSpread = 1e16 }},
		{"Duration", func(s *Scenario) { s.Duration = 1e16 }},
	} {
		s := baseScenario()
		tc.set(&s)
		done := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("panic: %v", p)
				}
			}()
			_, err := Run(s)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Errorf("%s case: got %v, want an error naming %s", tc.name, err, tc.name)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s case: Run did not return within 10 s", tc.name)
		}
	}
	s := baseScenario()
	s.InitialBiases = []simtime.Duration{1e9, -1e9}
	if _, err := Run(s); err != nil {
		t.Errorf("biases of ±1e9 s: %v, want a run", err)
	}
}
