package metrics

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/simtime"
	"clocksync/internal/stats"
)

func mkClocks(biases []simtime.Duration, slopes []float64) []*clock.Local {
	out := make([]*clock.Local, len(biases))
	for i := range biases {
		slope := 1.0
		if i < len(slopes) {
			slope = slopes[i]
		}
		out[i] = clock.NewLocal(clock.NewDrifting(0, simtime.Time(biases[i]), slope))
	}
	return out
}

func TestDeviationOverGoodSet(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0.1, -0.1, 50}, nil)
	// Node 3 is corrupted for the whole run: it must not count.
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 3, From: 0, To: 1000, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 100)
	rec.TakeSample(10)
	s := rec.Samples()[0]
	if s.Good[3] {
		t.Fatal("corrupted node marked good")
	}
	if !s.Good[0] || !s.Good[1] || !s.Good[2] {
		t.Fatal("healthy nodes marked bad")
	}
	if math.Abs(float64(s.Deviation)-0.2) > 1e-9 {
		t.Fatalf("deviation: got %v, want 0.2", s.Deviation)
	}
}

func TestGoodSetRequiresThetaOfHealth(t *testing.T) {
	// A node released at t=50 stays out of the good set until t=50+Θ.
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 1, From: 10, To: 50, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 100)
	rec.TakeSample(149)
	rec.TakeSample(151)
	if rec.Samples()[0].Good[1] {
		t.Fatal("node good before Θ of health elapsed")
	}
	if !rec.Samples()[1].Good[1] {
		t.Fatal("node still bad after Θ of health")
	}
}

func TestPeriodicSampling(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	rec.Start(10)
	sim.RunUntil(55)
	if got := len(rec.Samples()); got != 5 {
		t.Fatalf("got %d samples, want 5", got)
	}
}

// An adjustment takes no sample, yet the report sees it: a spike made and
// corrected between two periodic samples is measured from the trajectory.
func TestSampleOnAdjust(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	sim.At(3, func() { clocks[0].Adjust(3, 0.5) })
	sim.At(4, func() { clocks[0].Adjust(4, -0.5) })
	rec.Start(10)
	sim.RunUntil(20)
	for _, s := range rec.Samples() {
		if s.At != 10 && s.At != 20 || s.Deviation != 0 {
			t.Fatalf("sample %+v: want only the periodic ones, both at deviation 0", s)
		}
	}
	if rep := rec.BuildReport(ReportOptions{}, nil); rep.MaxDeviation != 0.5 {
		t.Fatalf("MaxDeviation %v: the spike between the samples was missed", rep.MaxDeviation)
	}
}

func TestAdjustHookTracksDiscontinuity(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	clocks[1].Adjust(5, 0.02)
	clocks[1].Adjust(6, -0.07)
	clocks[1].Adjust(7, 0.01)
	sim.RunUntil(10)
	rep := rec.BuildReport(ReportOptions{}, nil)
	if math.Abs(float64(rep.MaxDiscontinuity)-0.07) > 1e-12 {
		t.Fatalf("discontinuity: got %v, want 0.07", rep.MaxDiscontinuity)
	}
	if got := len(rec.Samples()); got != 0 {
		t.Fatalf("%d samples taken at adjustments, want 0", got)
	}
}

func TestDiscontinuityExcludesRecoveringProcessors(t *testing.T) {
	// Definition 3(ii) covers only processors non-faulty during [τ−Θ, τ]:
	// a recovery jump right after release must count toward MaxAdjustment
	// but not toward the ψ measurement.
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 1, From: 10, To: 20, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 100)
	clocks[1].Adjust(25, -40) // recovery jump, 5 s after release (< Θ)
	clocks[1].Adjust(125, 0.01)
	clocks[1].Adjust(130, -0.02) // steady state, > Θ after release
	sim.RunUntil(200)
	rep := rec.BuildReport(ReportOptions{}, nil)
	if math.Abs(float64(rep.MaxAdjustment)-40) > 1e-12 {
		t.Fatalf("MaxAdjustment: got %v, want 40", rep.MaxAdjustment)
	}
	if math.Abs(float64(rep.MaxDiscontinuity)-0.02) > 1e-12 {
		t.Fatalf("MaxDiscontinuity: got %v, want 0.02 (recovery jump must not count)", rep.MaxDiscontinuity)
	}
}

// TestPerNodeAdjustLogs: each clock's steps go to its own log, cut from one
// reserved slab. A log that outgrows its share moves out without touching its
// neighbour's, and the report reads every log — its maxima do not depend on
// the order of the logs. The adversary's own write is not an adjustment.
func TestPerNodeAdjustLogs(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0, 0}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 2, From: 10, To: 20, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 100)
	rec.Reserve(4, 1)
	clocks[0].Adjust(150, 0.03)
	for i, d := range []simtime.Duration{0.01, -0.05, 0.02} { // two past node 1's share
		clocks[1].Adjust(simtime.Time(130+i), d)
	}
	clocks[2].Adjust(15, 50) // the adversary's smash: no adjustment at all
	clocks[2].Adjust(25, 9)  // a recovery jump: counts only as an adjustment
	if got := clocks[0].Steps(); len(got) != 1 || got[0].Delta != 0.03 {
		t.Fatalf("node 0's log %v was overwritten by node 1's", got)
	}
	sim.RunUntil(200)
	rep := rec.BuildReport(ReportOptions{}, nil)
	if rep.MaxAdjustment != 9 || rep.MaxDiscontinuity != 0.05 {
		t.Fatalf("MaxAdjustment %v, MaxDiscontinuity %v; want 9 and 0.05", rep.MaxAdjustment, rep.MaxDiscontinuity)
	}
}

func TestReportDeviationStats(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0.4}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	rec.TakeSample(10)         // deviation 0.4 — inside warm-up, skipped
	clocks[1].Adjust(12, -0.3) // left limit 0.4, still inside warm-up
	rec.TakeSample(20)         // deviation 0.1
	clocks[1].Adjust(25, 0.1)
	rec.TakeSample(30) // deviation 0.2
	sim.RunUntil(30)
	rep := rec.BuildReport(ReportOptions{SkipBefore: 15}, nil)
	if math.Abs(float64(rep.MaxDeviation)-0.2) > 1e-9 {
		t.Fatalf("max deviation: got %v", rep.MaxDeviation)
	}
	if math.Abs(float64(rep.MeanDeviation)-0.15) > 1e-9 {
		t.Fatalf("mean deviation: got %v", rep.MeanDeviation)
	}
}

func TestWorstRateMeasuresDrift(t *testing.T) {
	sim := des.New(1)
	// Slope 1.002 → rate deviation 0.002; no adjustments.
	clocks := mkClocks([]simtime.Duration{0, 0}, []float64{1.002, 1.0})
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	sim.RunUntil(100)
	rep := rec.BuildReport(ReportOptions{MinRateWindow: 50}, nil)
	if math.Abs(rep.WorstRate-0.002) > 1e-6 {
		t.Fatalf("worst rate: got %v, want 0.002", rep.WorstRate)
	}
}

func TestWorstRateSkipsBadStretches(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0}, []float64{1.0})
	// Node is corrupted in the middle; only the clean stretches count, and
	// both are too short for the rate window.
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 0, From: 30, To: 40, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 20)
	// Simulate a massive jump while corrupted.
	clocks[0].Adjust(35, 1000)
	sim.RunUntil(100)
	rep := rec.BuildReport(ReportOptions{MinRateWindow: 50}, nil)
	if rep.WorstRate > 0.001 {
		t.Fatalf("corrupted jump leaked into rate measurement: %v", rep.WorstRate)
	}
}

func TestRecoveryMeasurement(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0, 0, 10}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 3, From: 0, To: 10, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 5)
	clocks[3].Adjust(13, -5)    // distance 10 at the release, now 5
	clocks[3].Adjust(16, -4.99) // distance 0.01 ≤ margin
	sim.RunUntil(20)
	rep := rec.BuildReport(ReportOptions{RecoveryMargin: 0.1}, nil)
	if len(rep.Recoveries) != 1 {
		t.Fatalf("got %d recoveries", len(rep.Recoveries))
	}
	rv := rep.Recoveries[0]
	if !rv.Ok {
		t.Fatal("recovery not detected")
	}
	if rv.Rejoined != 16 || rv.Time() != 6 {
		t.Fatalf("rejoin: %+v", rv)
	}
	if math.Abs(float64(rv.InitialDistance)-10) > 1e-9 {
		t.Fatalf("initial distance: %v", rv.InitialDistance)
	}
}

func TestRecoveryNeverCompletes(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0, 100}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 2, From: 0, To: 10, Behavior: adversary.Crash{}},
	}}
	rec := NewRecorder(sim, clocks, sched, 5)
	sim.RunUntil(50)
	rep := rec.BuildReport(ReportOptions{RecoveryMargin: 0.1}, nil)
	if rep.Recoveries[0].Ok {
		t.Fatal("stuck node reported as recovered")
	}
}

// An At mark is handed its instant's right limit, after the writes made
// there, and fires once: a second BuildReport does not run it again.
func TestAtMarksFireOnce(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0, 0, 10}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 5)
	clocks[2].Adjust(13, -5)
	var got []simtime.Duration
	for _, at := range []simtime.Time{16, 13} {
		rec.At(at, func(s Sample) { got = append(got, s.Biases[2]) })
	}
	sim.RunUntil(20)
	rec.BuildReport(ReportOptions{}, nil)
	rec.BuildReport(ReportOptions{}, nil)
	if len(got) != 2 || math.Abs(float64(got[0])-5) > 1e-9 || math.Abs(float64(got[1])-5) > 1e-9 {
		t.Fatalf("marks saw %v, want [5 5] once each", got)
	}
}

func TestSeriesExtraction(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{1, 2}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	rec.TakeSample(5)
	rec.TakeSample(10)
	ts, devs := rec.DeviationSeries()
	if len(ts) != 2 || ts[0] != 5 || ts[1] != 10 {
		t.Fatalf("times: %v", ts)
	}
	if math.Abs(devs[0]-1) > 1e-9 {
		t.Fatalf("devs: %v", devs)
	}
}

func TestNewRecorderPanicsOnBadTheta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder(des.New(1), nil, adversary.Schedule{}, 0)
}

// The kernel and the recorder are one measurement: Measure and TakeSample
// agree field for field, and Deviation is max − min over the good biases in
// the same float operations stats.Spread performs — 0 when one processor or
// none is good.
func TestMeasureMatchesTakeSample(t *testing.T) {
	clocks := mkClocks([]simtime.Duration{0.03, -0.2, 0.11, 7}, []float64{1.0001, 0.9999, 1, 1.0002})
	for wantGood, corrupt := range [][]int{{0, 1, 2, 3}, {0, 1, 3}, {0, 3}, {3}, nil} {
		var sched adversary.Schedule
		for _, node := range corrupt { // released at 60: within Θ of every instant below
			sched.Corruptions = append(sched.Corruptions,
				adversary.Corruption{Node: node, From: 40, To: 60, Behavior: adversary.Crash{}})
		}
		rec := NewRecorder(des.New(1), clocks, sched, 100)
		for i, at := range []simtime.Time{61, 100, 159.5} {
			s := rec.Measure(at)
			rec.TakeSample(at)
			if got := rec.Samples()[i]; s.At != at || !reflect.DeepEqual(s, got) {
				t.Fatalf("τ=%v: kernel %+v ≠ recorder %+v", at, s, got)
			}
			var good []float64
			for n, g := range s.Good {
				if g {
					good = append(good, float64(s.Biases[n]))
				}
			}
			if len(good) != wantGood || float64(s.Deviation) != stats.Spread(good) || (wantGood < 2 && s.Deviation != 0) {
				t.Fatalf("τ=%v: deviation %v over %d good (want %d good, spread %v)",
					at, s.Deviation, len(good), wantGood, stats.Spread(good))
			}
		}
	}
}

// Inside its reservation a measurement instant allocates nothing: the views
// come off the recorder's slabs and the sample log has room.
func TestTakeSampleAllocFree(t *testing.T) {
	clocks := mkClocks([]simtime.Duration{0, 0.1, -0.2, 0.3, 5, -1, 0.05}, nil)
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 4, From: 10, To: 40, Behavior: adversary.Crash{}},
	}}
	const runs = 100
	// The slabs come from the pool: a recorder of the same shape released
	// them. With one P, the pool hands back what was just put.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prev := NewRecorder(des.New(1), clocks, sched, 100)
	prev.Reserve(runs+1, 0)
	prev.TakeSample(0)
	released := prev.store
	prev.Release()
	rec := NewRecorder(des.New(1), clocks, sched, 100)
	rec.Reserve(runs+1, 0) // AllocsPerRun adds one warm-up call
	if !raceEnabled && rec.store != released {
		t.Fatal("Reserve did not take the storage a recorder of the same shape released")
	}
	at := simtime.Time(0)
	allocs := testing.AllocsPerRun(runs, func() {
		at++
		rec.TakeSample(at)
	})
	if allocs != 0 {
		t.Errorf("TakeSample inside the reservation: %v allocs per sample, want 0", allocs)
	}
	if got := len(rec.Samples()); got != runs+1 {
		t.Fatalf("%d samples recorded, want %d", got, runs+1)
	}
}

// A sample's views are capped at the processor count and never move: appending
// to one sample's Biases cannot write into the next sample's, and a sample
// taken before the recorder outgrew its slab keeps its values and its storage
// after it did.
func TestSampleViewsDoNotAlias(t *testing.T) {
	for _, reserve := range []int{0, 2, 64} {
		clocks := mkClocks([]simtime.Duration{0, 0.1, -0.2}, nil)
		rec := NewRecorder(des.New(1), clocks, adversary.Schedule{}, 100)
		rec.Reserve(reserve, 0)
		var want [][]simtime.Duration
		var first []*simtime.Duration
		for i := 0; i < 3*minSlabSamples; i++ {
			clocks[0].Adjust(simtime.Time(i), 0.5)
			rec.TakeSample(simtime.Time(i))
			s := rec.Samples()[i]
			want = append(want, append([]simtime.Duration(nil), s.Biases...))
			first = append(first, &s.Biases[0])
		}
		samples := rec.Samples()
		for i := 0; i+1 < len(samples); i++ {
			next := samples[i+1].Biases[0]
			grown := append(samples[i].Biases, 99)
			grownGood := append(samples[i].Good, false)
			if samples[i+1].Biases[0] != next || !samples[i+1].Good[0] || &grown[0] == &samples[i].Biases[0] || &grownGood[0] == &samples[i].Good[0] {
				t.Fatalf("reserve %d: appending to sample %d wrote into its own slab (next bias %v → %v)",
					reserve, i, next, samples[i+1].Biases[0])
			}
		}
		for i, s := range samples {
			if !reflect.DeepEqual(s.Biases, want[i]) || &s.Biases[0] != first[i] {
				t.Fatalf("reserve %d: sample %d changed after later samples: %v, want %v", reserve, i, s.Biases, want[i])
			}
		}
	}
}

// One Envelope walked over a hand series reproduces the report's
// AccuracyDrawdown/Runup exactly when it advances where the report does: at
// the stretch's start and end, and at both limits of each step, the level
// before and the level after. With a negligible ρ̃ both rate lines have
// slope 1, so the drawdown is the largest fall of the bias from an earlier
// peak and the runup its largest rise from an earlier trough.
func TestEnvelopeReproducesReport(t *testing.T) {
	sim := des.New(1)
	clocks := mkClocks([]simtime.Duration{0}, nil)
	rec := NewRecorder(sim, clocks, adversary.Schedule{}, 100)
	var env Envelope
	var drawdown, runup simtime.Duration
	advance := func(at simtime.Time) {
		d, u := env.Advance(at, clocks[0].Adj(), 1e-12)
		drawdown, runup = simtime.MaxDuration(drawdown, d), simtime.MaxDuration(runup, u)
	}
	advance(0)
	for i, target := range []simtime.Duration{0, 0.3, 0.1, -0.4, 0.2, 0.1} {
		at := simtime.Time(10 * (i + 1))
		advance(at)
		clocks[0].Adjust(at, target-clocks[0].Adj())
		advance(at)
	}
	sim.RunUntil(70)
	advance(70)
	rep := rec.BuildReport(ReportOptions{LogicalDriftBound: 1e-12}, nil)
	if rep.AccuracyDrawdown != drawdown || rep.AccuracyRunup != runup {
		t.Fatalf("report (%.17g, %.17g) ≠ envelope (%.17g, %.17g)", rep.AccuracyDrawdown, rep.AccuracyRunup, drawdown, runup)
	}
	if math.Abs(float64(drawdown)-0.7) > 1e-9 || math.Abs(float64(runup)-0.6) > 1e-9 {
		t.Fatalf("drawdown %v runup %v, want 0.7 (0.3 → −0.4) and 0.6 (−0.4 → 0.2)", drawdown, runup)
	}
	env.Reset()
	if d, u := env.Advance(70, -5, 1e-12); d != 0 || u != 0 {
		t.Fatalf("first sample of a new stretch measured against the old one: (%v, %v)", d, u)
	}
}

// Node 3 is measured against the good nodes other than itself; node 2 is not
// good and must not widen the range.
func TestDistanceToGood(t *testing.T) {
	good := []bool{true, true, false, true}
	for _, tc := range []struct {
		name string
		bias simtime.Duration // of node 3, against a good range of [0.1, 0.3]
		good []bool
		want simtime.Duration
		ok   bool
	}{
		{"below", -0.4, good, 0.5, true},
		{"inside", 0.2, good, 0, true},
		{"above", 1.3, good, 1, true},
		{"no other good", 1.3, []bool{false, false, false, true}, 0, false},
	} {
		s := Sample{Biases: []simtime.Duration{0.1, 0.3, 9, tc.bias}, Good: tc.good}
		if got, ok := s.DistanceToGood(3); ok != tc.ok || math.Abs(float64(got-tc.want)) > 1e-12 {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// A released recorder's storage is the next run's, so each read of the
// recorder panics rather than return that run's samples.
func TestReadAfterReleasePanics(t *testing.T) {
	for name, read := range map[string]func(*Recorder){
		"Samples":         func(r *Recorder) { r.Samples() },
		"DeviationSeries": func(r *Recorder) { r.DeviationSeries() },
		"BuildReport":     func(r *Recorder) { r.BuildReport(ReportOptions{}, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			rec := NewRecorder(des.New(1), mkClocks([]simtime.Duration{0, 0.1}, nil), adversary.Schedule{}, 100)
			rec.Reserve(2, 1)
			rec.TakeSample(1)
			rec.Release()
			rec.Release() // a second release does nothing more
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			read(rec)
		})
	}
}

// Reserve replaces the logs, so on a recorder that has recorded anything it
// would silently drop those instants from the report: it panics instead.
func TestLateReservePanics(t *testing.T) {
	for name, record := range map[string]func(*Recorder){
		"after a sample":      func(r *Recorder) { r.TakeSample(1) },
		"after an adjustment": func(r *Recorder) { r.clocks[1].Adjust(1, 0.01) },
	} {
		t.Run(name, func(t *testing.T) {
			rec := NewRecorder(des.New(1), mkClocks([]simtime.Duration{0, 0.1}, nil), adversary.Schedule{}, 100)
			rec.Reserve(0, 0)
			record(rec)
			defer func() {
				if recover() == nil {
					t.Errorf("Reserve %s did not panic", name)
				}
			}()
			rec.Reserve(8, 2)
		})
	}
}

// Released storage serves the next Reserve of a run no larger: reserving,
// measuring, sweeping the report and releasing run after run allocates
// nothing.
func TestReserveFromReleasedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	clocks := mkClocks([]simtime.Duration{0, 0.1, -0.2, 0.3, 5, -1, 0.05}, nil)
	const runs = 50
	recs := make([]*Recorder, runs+1) // AllocsPerRun adds one warm-up call
	sims := make([]*des.Sim, runs+1)
	for i := range recs {
		sims[i] = des.New(1)
		recs[i] = NewRecorder(sims[i], clocks, adversary.Schedule{}, 100)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		rec, sim := recs[i], sims[i]
		i++
		rec.Reserve(17, 4)
		for at := simtime.Time(0); at < 17; at++ {
			rec.TakeSample(at)
		}
		clocks[3].Adjust(16.5, 0.01)
		sim.RunUntil(17)
		rec.BuildReport(ReportOptions{LogicalDriftBound: 1e-4}, nil)
		rec.Release()
	})
	if allocs != 0 {
		t.Errorf("reserve, measure, report and release: %v allocs per run, want 0", allocs)
	}
}
