package experiments

import (
	"fmt"
	"math"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/asciiplot"
	"clocksync/internal/core"
	"clocksync/internal/metrics"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// mustRun executes a scenario and panics on configuration errors — inside
// the experiment suite a failing configuration is a bug, not an input error.
func mustRun(s scenario.Scenario) *scenario.Result {
	res, err := scenario.Run(s)
	if err != nil {
		panic(fmt.Sprintf("experiment scenario %q: %v", s.Name, err))
	}
	return res
}

// E01Deviation reproduces Table 1: Theorem 5(i)'s synchronization guarantee.
// For each n, an f-limited rotating adversary smashes clocks throughout the
// run; the measured worst-case good-set deviation must stay below the
// derived bound Δ.
func E01Deviation(quick bool) Table {
	t := Table{
		ID:    "E1",
		Title: "Maximum deviation vs Theorem 5 bound (rotating f-limited adversary)",
		Columns: []string{"n", "f", "syncs/node", "measured Δ (s)", "bound Δ (s)",
			"ratio", "recoveries"},
		Notes: "Theorem 5(i): deviation of processors non-faulty for Θ stays ≤ Δ = 16ε+18ρT+4C. " +
			"Expected shape: every ratio < 1, with headroom (the bound is worst-case).",
	}
	duration := simtime.Duration(scaled(quick, 2*3600, 900))
	theta := 3 * simtime.Minute
	seeds := []int64{1, 2, 3}
	if quick {
		seeds = seeds[:1]
	}
	for _, n := range []int{4, 7, 10, 13, 16} {
		f := (n - 1) / 3
		// Fill the run with rotating corruptions, leaving Θ at the end so the
		// last release's recovery is measurable.
		step := simtime.Duration(float64(theta+30*simtime.Second) / float64(f))
		events := int(float64(duration-3*theta) / float64(step))
		sched := adversary.Rotate(n, f, simtime.Time(2*theta), 30*simtime.Second, theta, events,
			func(int) protocol.Behavior { return adversary.ClockSmash{Offset: 20 * simtime.Second} })
		// Worst outcome over independent seeds — one lucky run proves
		// nothing about a probabilistic simulation.
		var worst *scenario.Result
		var worstDisc, discBound simtime.Duration
		recovered, total, syncs := 0, 0, 0
		for _, seed := range seeds {
			res := mustRun(scenario.Scenario{
				Name:       fmt.Sprintf("e1-n%d-s%d", n, seed),
				Seed:       100*seed + int64(n),
				N:          n,
				F:          f,
				Duration:   duration,
				Theta:      theta,
				Rho:        1e-4,
				InitSpread: 100 * simtime.Millisecond,
				Adversary:  sched,
			})
			r, tot := countRecoveries(res.Report.Recoveries)
			recovered += r
			total += tot
			for _, st := range res.SyncStats {
				if st != nil {
					syncs += st.Syncs
				}
			}
			if worst == nil || res.Report.MaxDeviation > worst.Report.MaxDeviation {
				worst = res
			}
			if res.Report.MaxDiscontinuity > worstDisc {
				worstDisc = res.Report.MaxDiscontinuity
			}
			discBound = res.Bounds.Discontinuity
		}
		t.AddRow(n, f, syncs/(n*len(seeds)),
			float64(worst.Report.MaxDeviation), float64(worst.Bounds.MaxDeviation),
			float64(worst.Report.MaxDeviation)/float64(worst.Bounds.MaxDeviation),
			fmt.Sprintf("%d/%d", recovered, total))
		t.AddCheck(fmt.Sprintf("n=%d: worst-of-%d-seeds deviation ≤ Δ", n, len(seeds)),
			worst.Report.MaxDeviation <= worst.Bounds.MaxDeviation)
		t.AddCheck(fmt.Sprintf("n=%d: every smashed processor recovered", n),
			recovered == total)
		t.AddCheck(fmt.Sprintf("n=%d: good-processor discontinuity ≤ ψ under the adversary", n),
			worstDisc <= discBound)
	}
	return t
}

// E02AccuracyTradeoff reproduces Table 2: Theorem 5(ii) and the §4.1 remark
// that choosing T small relative to Θ (large K) drives the accuracy penalty
// C = (17ε+18ρT)/2^(K−3) to zero, so the logical drift ρ̃ approaches the
// hardware bound ρ.
func E02AccuracyTradeoff(quick bool) Table {
	t := Table{
		ID:    "E2",
		Title: "Accuracy vs K = Θ/T: the O(2^−K) tradeoff",
		Columns: []string{"K", "Θ (s)", "C (s)", "theory ρ̃−ρ", "measured |rate−1|",
			"measured Δ (s)", "bound Δ (s)"},
		Notes: "Theorem 5(ii): ρ̃ = ρ + C/2T with C ∝ 2^−K. Expected shape: the theory column " +
			"collapses geometrically with K while measured drift stays ≤ ρ̃; T=Θ/20 already gives ρ̃≈ρ.",
	}
	duration := simtime.Duration(scaled(quick, 3600, 900))
	lastC := -1.0
	for _, k := range []int{5, 8, 12, 20, 40} {
		s := scenario.Scenario{
			Name:       fmt.Sprintf("e2-k%d", k),
			Seed:       int64(200 + k),
			N:          7,
			F:          2,
			Duration:   duration,
			Rho:        1e-4,
			SyncInt:    10 * simtime.Second,
			InitSpread: 100 * simtime.Millisecond,
		}
		params := s.Params()
		s.Theta = simtime.Duration(float64(k))*params.T() + simtime.Second
		res := mustRun(s)
		t.AddRow(res.Bounds.K, float64(s.Theta), float64(res.Bounds.C),
			res.Bounds.LogicalDrift-1e-4,
			res.Report.WorstRate,
			float64(res.Report.MaxDeviation), float64(res.Bounds.MaxDeviation))
		t.AddCheck(fmt.Sprintf("K=%d: measured rate within ρ̃", res.Bounds.K),
			res.Report.WorstRate <= res.Bounds.LogicalDrift*1.05+1e-9)
		if lastC >= 0 && float64(res.Bounds.C) >= lastC {
			t.AddCheck(fmt.Sprintf("K=%d: C decreased vs previous K", res.Bounds.K), false)
		}
		lastC = float64(res.Bounds.C)
	}
	t.AddCheck("C decays monotonically with K", true)
	return t
}

// E03RecoveryHalving reproduces Figure A: Lemma 7(iii)/Claim 8(iii) — a
// released processor's distance to the good range halves (at least) every
// interval T. Two variants make the mechanism visible:
//
//   - Sync as specified: once the distance exceeds WayOff the processor
//     ignores its own clock and jumps back in a single Sync — recovery time
//     is flat in the offset (the paper chose fast recovery over minimal
//     correction, §1.1).
//   - The clipped rule alone (WayOff disabled): each Sync averages the own
//     clock with the trimmed range, halving the distance — the geometric
//     trajectory the lemma proves, with recovery time ≈ log2(offset/Δ)
//     rounds.
func E03RecoveryHalving(quick bool) Table {
	t := Table{
		ID:    "E3",
		Title: "Recovery after release: WayOff escape vs pure halving (Lemma 7(iii))",
		Columns: []string{"initial offset", "Sync recovery (s)", "no-escape recovery (s)",
			"no-escape rounds", "log2(offset/Δ) predicted"},
		Notes: "Lemma 7(iii): distance to the good envelope halves per interval T. The full " +
			"protocol's WayOff escape recovers in O(1) rounds regardless of offset; with the " +
			"escape disabled the measured rounds track log2(offset/Δ), the figure's straight " +
			"lines on the log2 axis.",
	}
	theta := 5 * simtime.Minute
	series := map[string][]float64{}
	var xs []float64
	var syncTimes, halvingRounds, predictedRounds []float64
	for _, mult := range []float64{2, 8, 32, 128} {
		run := func(noEscape bool) (*scenario.Result, analysis.Bounds, metrics.Recovery) {
			s := scenario.Scenario{
				Name:     fmt.Sprintf("e3-x%g-%v", mult, noEscape),
				Seed:     300,
				N:        7,
				F:        2,
				Duration: simtime.Duration(scaled(quick, 900, 600)),
				Theta:    theta,
				Rho:      1e-4,
			}
			bounds, err := analysis.Derive(s.Params())
			if err != nil {
				panic(err)
			}
			offset := simtime.Duration(mult * float64(bounds.MaxDeviation))
			s.Adversary = adversary.Schedule{Corruptions: []adversary.Corruption{{
				Node: 6, From: 60, To: 61,
				Behavior: adversary.ClockSmash{Offset: offset, Quiet: true},
			}}}
			if noEscape {
				s.Builder = scenario.SyncBuilder(func(cfg *core.Config, _ scenario.BuildContext) {
					cfg.WayOff = simtime.Duration(math.MaxFloat64 / 4)
				})
			}
			res := mustRun(s)
			return res, bounds, res.Report.Recoveries[0]
		}

		_, bounds, rvSync := run(false)
		resHalf, _, rvHalf := run(true)
		tT := float64(bounds.T)
		rounds := float64(rvHalf.Time()) / tT
		predicted := math.Log2(mult)
		t.AddRow(fmt.Sprintf("%gΔ = %s", mult, formatFloat(mult*float64(bounds.MaxDeviation))),
			float64(rvSync.Time()), float64(rvHalf.Time()), rounds, predicted)
		t.AddCheck(fmt.Sprintf("offset %gΔ: full protocol recovered within Θ", mult),
			rvSync.Ok && rvSync.Time() <= theta)
		t.AddCheck(fmt.Sprintf("offset %gΔ: no-escape variant recovered within Θ", mult),
			rvHalf.Ok && rvHalf.Time() <= theta)
		syncTimes = append(syncTimes, float64(rvSync.Time()))
		halvingRounds = append(halvingRounds, rounds)
		predictedRounds = append(predictedRounds, predicted)

		// No-escape distance trajectory for the figure, sampled per T.
		traj := distanceTrajectory(resHalf, 6, 61)
		var ys []float64
		for i := 0; i < 12; i++ {
			d := sampleAt(traj, 61+float64(i)*tT)
			if d <= float64(bounds.Eps) {
				d = float64(bounds.Eps) // floor at the reading error
			}
			ys = append(ys, math.Log2(d/float64(bounds.MaxDeviation)))
		}
		series[fmt.Sprintf("%gxΔ", mult)] = ys
		if xs == nil {
			for i := 0; i < 12; i++ {
				xs = append(xs, float64(i))
			}
		}
	}
	t.Figure = asciiplot.Line(xs, series, asciiplot.Options{
		Width: 60, Height: 14,
		YLabel: "log2(distance/Δ), WayOff disabled", XLabel: "intervals T since release",
	})
	t.AddCheck("full protocol: recovery time flat in the offset (single-jump escape)",
		syncTimes[3] <= 2*syncTimes[0]+1)
	// The halving variant's round count must track the log2 prediction: more
	// rounds for each quadrupling, within a couple of rounds of slack.
	trackLog := true
	for i := range halvingRounds {
		if math.Abs(halvingRounds[i]-predictedRounds[i]) > 2.5 {
			trackLog = false
		}
	}
	t.AddCheck("no-escape rounds ≈ log2(offset/Δ) (geometric halving)", trackLog)
	return t
}

// E05MobileAdversary reproduces Figure B: an unbounded number of total
// corruptions — every processor smashed repeatedly — with deviation staying
// bounded throughout, which protocols assuming a lifetime fault bound cannot
// do.
func E05MobileAdversary(quick bool) Table {
	t := Table{
		ID:    "E5",
		Title: "Mobile adversary marathon: unbounded total faults, bounded deviation",
		Columns: []string{"duration (h)", "total corruptions", "corruptions/node",
			"max deviation (s)", "bound Δ (s)", "recoveries"},
		Notes: "Every processor is corrupted many times over — the total fault count far exceeds " +
			"n — yet the good-set deviation never crosses Δ. Expected shape: flat bounded series.",
	}
	n, f := 10, 3
	theta := 2 * simtime.Minute
	dwell := 30 * simtime.Second
	duration := simtime.Duration(scaled(quick, 6*3600, 1800))
	step := simtime.Duration(float64(theta+dwell)/float64(f)) + simtime.Millisecond
	events := int(float64(duration-simtime.Duration(600)) / float64(step))
	sched := adversary.Rotate(n, f, simtime.Time(5*simtime.Minute), dwell, theta, events,
		func(node int) protocol.Behavior {
			if node%2 == 0 {
				return adversary.ClockSmash{Offset: 60 * simtime.Second}
			}
			return adversary.ClockSmash{Offset: -45 * simtime.Second, Quiet: true}
		})
	res := mustRun(scenario.Scenario{
		Name:         "e5-marathon",
		Seed:         500,
		N:            n,
		F:            f,
		Duration:     duration,
		Theta:        theta,
		Rho:          1e-4,
		InitSpread:   100 * simtime.Millisecond,
		Adversary:    sched,
		SamplePeriod: 10 * simtime.Second,
	})
	recovered, total := countRecoveries(res.Report.Recoveries)
	t.AddRow(float64(duration)/3600, len(sched.Corruptions),
		float64(len(sched.Corruptions))/float64(n),
		float64(res.Report.MaxDeviation), float64(res.Bounds.MaxDeviation),
		fmt.Sprintf("%d/%d", recovered, total))
	t.AddCheck("total corruptions exceed n (unbounded-fault regime)",
		len(sched.Corruptions) > n)
	t.AddCheck("deviation stayed ≤ Δ throughout",
		res.Report.MaxDeviation <= res.Bounds.MaxDeviation)
	t.AddCheck("every corruption recovered", recovered == total)

	ts, devs := res.Recorder.DeviationSeries()
	t.Figure = asciiplot.Line(ts, map[string][]float64{"deviation": devs},
		asciiplot.Options{Width: 64, Height: 12, YLabel: "good-set deviation (s)", XLabel: "real time (s)"})
	return t
}

// countRecoveries tallies successful recoveries.
func countRecoveries(rs []metrics.Recovery) (ok, total int) {
	for _, r := range rs {
		total++
		if r.Ok {
			ok++
		}
	}
	return ok, total
}

// distanceTrajectory extracts |bias(node) − good range| over time from the
// recorded samples, starting at from.
type trajPoint struct {
	at   float64
	dist float64
}

func distanceTrajectory(res *scenario.Result, node int, from float64) []trajPoint {
	var out []trajPoint
	for _, s := range res.Recorder.Samples() {
		if float64(s.At) < from {
			continue
		}
		if d, ok := s.DistanceToGood(node); ok {
			out = append(out, trajPoint{at: float64(s.At), dist: float64(d)})
		}
	}
	return out
}

// sampleAt returns the trajectory value at or just after the given time.
func sampleAt(traj []trajPoint, at float64) float64 {
	for _, p := range traj {
		if p.at >= at {
			return p.dist
		}
	}
	if len(traj) == 0 {
		return 0
	}
	return traj[len(traj)-1].dist
}
