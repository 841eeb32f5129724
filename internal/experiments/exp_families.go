package experiments

import (
	"fmt"
	"math"
	"sort"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/campaign"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
	"clocksync/internal/stats"
)

// The experiments in this file measure the named adversary families of
// internal/campaign (E22–E25): one table per family, each pairing the
// family's honest variant (the Theorem 5 envelope must absorb it) with its
// designed-to-fail variant where one exists (the checker must flag it).
// Reproduce any row's campaign interactively with
// `synccampaign -family <name>`.

// famParams is the shared configuration of the family experiments — the
// campaign defaults, so every table matches what `synccampaign -family ...`
// runs out of the box.
func famParams() analysis.Params {
	return analysis.Params{
		N:       7,
		F:       2,
		Rho:     1e-4,
		Delta:   50 * simtime.Millisecond,
		Theta:   5 * simtime.Minute,
		SyncInt: 10 * simtime.Second,
		MaxWait: 100 * simtime.Millisecond,
	}
}

// E22DelaySkew measures the DelaySkew family: per-link asymmetric delay
// attacks aimed at the Marzullo-style trimmed midpoint. A reading is the
// interval [offset−d_rep, offset+d_req] (Definition 4); with non-negative
// delays every interval contains the true offset, so any in-δ asymmetry can
// only widen intervals, never make them lie — and Figure 1's own-clock clamp
// keeps the adjustment at zero while the own clock sits inside the trimmed
// extremes. The out-of-δ variant (delayskew!) therefore attacks the only
// thing skew can deny — the exchange itself: σ·δ link delays starve every
// round trip past the 2δ timeout, and the checker's Lemma 7(iii) recovery
// checkpoints flag the victim that can no longer converge.
func E22DelaySkew(quick bool) Table {
	t := Table{
		ID:    "E22",
		Title: "DelaySkew family: asymmetric link delay vs the trimmed midpoint",
		Columns: []string{"variant", "cross skew", "syncs/node", "measured dev (s)",
			"bound Δ (s)", "violations"},
		Notes: "Interval estimates are truthful under any non-negative delays, and the " +
			"own-clock clamp zeroes the adjustment while the own clock lies inside the " +
			"trimmed extremes — so a delay-only adversary inside δ cannot displace a " +
			"synchronized clock at all. Expected shape: honest rows within Δ with zero " +
			"violations at every severity; the out-of-δ starvation variant flagged on " +
			"every campaign seed, with recovery violations in evidence.",
	}
	p := famParams()
	duration := simtime.Duration(scaled(quick, 1800, 900))
	for _, frac := range []float64{0.25, 0.60, 0.94} {
		res := mustRun(scenario.Scenario{
			Name:     fmt.Sprintf("e22-skew%.2f", frac),
			Seed:     2200,
			N:        p.N,
			F:        p.F,
			Duration: duration,
			Theta:    p.Theta,
			Rho:      p.Rho,
			Delay: network.SkewedDelay{
				Boundary: p.F + 1,
				Slow:     simtime.Duration(frac * float64(p.Delta)),
				Fast:     p.Delta / 64,
				InGroup:  network.NewUniformDelay(p.Delta/20, p.Delta/2),
			},
			SyncInt:    p.SyncInt,
			MaxWait:    p.MaxWait,
			InitSpread: 20 * simtime.Millisecond,
			Check:      true,
		})
		dev := float64(res.Report.MaxDeviation)
		bound := float64(res.Bounds.MaxDeviation)
		syncs := 0
		for _, st := range res.SyncStats {
			if st != nil {
				syncs += st.Syncs
			}
		}
		t.AddRow("honest (in δ)", fmt.Sprintf("%.2f·δ", frac),
			syncs/p.N, dev, bound, len(res.Violations))
		t.AddCheck(fmt.Sprintf("skew %.2f·δ absorbed: within Δ, zero violations", frac),
			dev <= bound && len(res.Violations) == 0)
	}

	// The designed-to-fail variant, exactly as `-family delayskew!` runs it.
	runs := int(scaled(quick, 8, 4))
	res, err := campaign.Run(campaign.Config{
		Runs: runs, Seed: 1,
		Families: campaign.FamilyMix{{Family: campaign.FamilyDelaySkew, Weight: 1, Hostile: true}},
	})
	if err != nil {
		panic(fmt.Sprintf("e22 hostile campaign: %v", err))
	}
	t.AddRow("hostile delayskew!", "σ·δ, σ∈[40,80]", "-", "-", "-",
		fmt.Sprintf("%d flagged of %d runs", len(res.Failures), runs))
	t.AddCheck("out-of-δ starvation flagged on every seed", len(res.Failures) == runs)
	return t
}

// E23ChurnBudget measures the ChurnBudget family at the Definition 2
// boundary: sustained corrupt/release streams whose spacing margin decides,
// to the millisecond, whether the schedule is an f-limited strategy or one
// processor over budget. The protocol must hold its envelope against the
// tightest valid stream; the validator must reject the over-budget stream;
// and when an over-budget burst is forced through anyway (churn!), the
// online checker must flag what the validator could not vet.
func E23ChurnBudget(quick bool) Table {
	t := Table{
		ID:    "E23",
		Title: "ChurnBudget family: corrupt/release streams at the f-per-Θ boundary",
		Columns: []string{"variant", "margin", "break-ins", "Validate",
			"measured dev (s)", "violations"},
		Notes: "Break-ins spaced (Θ+dwell)/f + margin apart: the extended windows " +
			"[From−Θ, To] of break-ins i and i+f overlap exactly when f·margin ≤ 0. " +
			"Expected shape: +margin streams validate and run clean however small the " +
			"margin; the −1 ms stream is rejected by Validate; the forced f+1 " +
			"simultaneous-liar burst (churn!) is flagged by the checker on every seed.",
	}
	p := famParams()
	// The stream needs ≥ f+1 break-ins for the boundary to bite: with fewer,
	// no Θ-window can ever exceed the budget and the −1 ms rejection row
	// would be vacuous. horizon−start ≥ f·step + dwell ≈ 340 s at defaults.
	duration := simtime.Duration(scaled(quick, 2400, 1800))
	dwell := 20 * simtime.Second
	mk := func(int) protocol.Behavior {
		return adversary.ClockSmash{Offset: 2 * simtime.Second, Quiet: true}
	}
	for _, margin := range []simtime.Duration{simtime.Second, simtime.Millisecond} {
		sched := adversary.Churn(p.N, p.F, simtime.Time(2*p.Theta), simtime.Time(duration-p.Theta),
			dwell, p.Theta, margin, mk)
		if err := sched.Validate(p.N, p.F, p.Theta); err != nil {
			panic(fmt.Sprintf("e23 margin %v: boundary-valid stream rejected: %v", margin, err))
		}
		res := mustRun(scenario.Scenario{
			Name:       fmt.Sprintf("e23-margin%v", margin),
			Seed:       2300,
			N:          p.N,
			F:          p.F,
			Duration:   duration,
			Theta:      p.Theta,
			Rho:        p.Rho,
			Delay:      network.NewUniformDelay(p.Delta/10, p.Delta),
			SyncInt:    p.SyncInt,
			MaxWait:    p.MaxWait,
			InitSpread: 20 * simtime.Millisecond,
			Adversary:  sched,
			Check:      true,
		})
		dev := float64(res.Report.MaxDeviation)
		bound := float64(res.Bounds.MaxDeviation)
		t.AddRow("boundary stream", fmt.Sprintf("+%v", margin), len(sched.Corruptions),
			"ok", dev, len(res.Violations))
		t.AddCheck(fmt.Sprintf("margin +%v: clean within Δ", margin),
			dev <= bound && len(res.Violations) == 0)
	}

	over := adversary.Churn(p.N, p.F, simtime.Time(2*p.Theta), simtime.Time(duration-p.Theta),
		dwell, p.Theta, -simtime.Millisecond, mk)
	overErr := over.Validate(p.N, p.F, p.Theta)
	t.AddRow("over-budget stream", "−1ms", len(over.Corruptions), "rejected", "-", "-")
	t.AddCheck("margin −1ms rejected by Validate", overErr != nil)

	runs := int(scaled(quick, 8, 4))
	res, err := campaign.Run(campaign.Config{
		Runs: runs, Seed: 1,
		Families: campaign.FamilyMix{{Family: campaign.FamilyChurn, Weight: 1, Hostile: true}},
	})
	if err != nil {
		panic(fmt.Sprintf("e23 hostile campaign: %v", err))
	}
	t.AddRow("forced burst churn!", "f+1 liars", p.F+1, "rejected",
		"-", fmt.Sprintf("%d flagged of %d runs", len(res.Failures), runs))
	t.AddCheck("forced f+1 burst flagged by the checker on every seed", len(res.Failures) == runs)
	return t
}

// E24FlashRejoin measures the FlashRecovery family's rejoin-time tail: all f
// processors of the period smashed together and released at one instant, at
// offsets spanning decades. Lemma 7(iii) halves a released clock's distance
// every analysis interval T (down to the 2C+2ε residue), so the rejoin time
// of a crowd released at distance m·Δ grows logarithmically in m: about
// ⌈log₂ m⌉ halvings plus alignment slack. This table is golden-pinned
// (testdata/e24_rejoin.golden): the tail is deterministic in the seed.
func E24FlashRejoin(quick bool) Table {
	t := Table{
		ID:    "E24",
		Title: "FlashRecovery family: rejoin-time tail of simultaneous f-crowd releases",
		Columns: []string{"release offset", "releases", "rejoin p50 (s)", "p90 (s)",
			"max (s)", "log bound (s)", "max ≤ bound"},
		Notes: "Every wave smashes f clocks to the same offset and releases them together. " +
			"Lemma 7(iii): distance ≤ dist₀/2ᵏ + 2C + 2ε after k intervals, so rejoin " +
			"time grows at most with log₂ of the release distance — the log bound " +
			"column is (⌈log₂ m⌉+2)·T. Expected shape: all releases rejoin, every " +
			"per-offset max under its log bound, and the measured tail is nearly " +
			"offset-independent: beyond WayOff the Figure 1 escape jumps a released " +
			"clock to the trimmed midpoint in one Sync, so the observed rejoin is set " +
			"by Sync phase, far inside the worst-case halving schedule.",
	}
	p := famParams()
	bounds := analysis.MustDerive(p)
	waves := int(scaled(quick, 4, 2))
	dwell := 2 * p.SyncInt
	stride := p.Theta + dwell + p.SyncInt
	var maxima []float64
	for _, mult := range []float64{2, 8, 32, 128} {
		offset := simtime.Duration(mult * float64(bounds.MaxDeviation))
		var sched adversary.Schedule
		at := simtime.Time(2 * p.Theta)
		for w := 0; w < waves; w++ {
			victims := make([]int, p.F)
			for j := range victims {
				victims[j] = (w*p.F + j) % p.N
			}
			wave := adversary.Static(victims, at, at.Add(dwell),
				func(int) protocol.Behavior {
					return adversary.ClockSmash{Offset: offset, Quiet: true}
				})
			sched.Corruptions = append(sched.Corruptions, wave.Corruptions...)
			at = at.Add(stride)
		}
		res := mustRun(scenario.Scenario{
			Name:         fmt.Sprintf("e24-x%g", mult),
			Seed:         2400,
			N:            p.N,
			F:            p.F,
			Duration:     simtime.Duration(at) + p.Theta,
			Theta:        p.Theta,
			Rho:          p.Rho,
			Delay:        network.NewUniformDelay(p.Delta/10, p.Delta),
			SyncInt:      p.SyncInt,
			MaxWait:      p.MaxWait,
			InitSpread:   20 * simtime.Millisecond,
			Adversary:    sched,
			SamplePeriod: simtime.Second,
			Check:        true,
		})
		var times []float64
		allOk := true
		for _, rv := range res.Report.Recoveries {
			if !rv.Ok {
				allOk = false
				continue
			}
			times = append(times, float64(rv.Time()))
		}
		sort.Float64s(times)
		logBound := float64(bounds.T) * (math.Ceil(math.Log2(mult)) + 2)
		worst := percentileOf(times, 1)
		t.AddRow(fmt.Sprintf("%g·Δ", mult), len(times), percentileOf(times, 0.5),
			percentileOf(times, 0.9), worst, logBound, worst <= logBound)
		t.AddCheck(fmt.Sprintf("%g·Δ: every release rejoined", mult),
			allOk && len(times) == waves*p.F)
		t.AddCheck(fmt.Sprintf("%g·Δ: max rejoin within the log bound", mult),
			worst <= logBound)
		maxima = append(maxima, worst)
		if len(res.Violations) > 0 {
			t.AddCheck(fmt.Sprintf("%g·Δ: honest run clean", mult), false)
		}
	}
	// 64× the offset (2·Δ → 128·Δ) must cost far less than 64× the rejoin
	// time — the logarithmic tail compression Lemma 7(iii) promises.
	t.AddCheck("tail compresses: max(128·Δ) ≤ 8× max(2·Δ)",
		maxima[3] <= 8*maxima[0])
	return t
}

// percentileOf returns the q-quantile of sorted xs (nearest-rank), in
// seconds; 0 when empty.
func percentileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// E25ColdStart measures the ColdStart family: arbitrary initial clock
// states, decades beyond the δ-scale scatter the analysis assumes at start.
// Like E14's self-stabilization probe, but on the exact scenarios
// `synccampaign -family coldstart` draws: uniform scatter at spreads from
// 1 s to 300 s, converging through the WayOff escape.
func E25ColdStart(quick bool) Table {
	t := Table{
		ID:    "E25",
		Title: "ColdStart family: convergence from arbitrary initial states",
		Columns: []string{"initial spread (s)", "spread @end (s)", "converged ≤ Δ",
			"time to Δ (s)"},
		Notes: "The paper assumes a correct start; the ColdStart family begins anyway at " +
			"spreads up to 300 s. The WayOff escape pulls far clocks to the trimmed " +
			"midpoint, contracting any scatter geometrically, so time-to-Δ grows with " +
			"the log of the spread. Expected shape: every spread converges below Δ " +
			"within the run.",
	}
	p := famParams()
	duration := simtime.Duration(scaled(quick, 1800, 900))
	for _, spread := range []simtime.Duration{simtime.Second, 10 * simtime.Second,
		100 * simtime.Second, 300 * simtime.Second} {
		res := mustRun(scenario.Scenario{
			Name:         fmt.Sprintf("e25-%v", spread),
			Seed:         2500,
			N:            p.N,
			F:            p.F,
			Duration:     duration,
			Theta:        p.Theta,
			Rho:          p.Rho,
			Delay:        network.NewUniformDelay(p.Delta/10, p.Delta),
			SyncInt:      p.SyncInt,
			MaxWait:      p.MaxWait,
			InitSpread:   spread,
			SamplePeriod: simtime.Second,
		})
		samples := res.Recorder.Samples()
		final := stats.Spread(toFloats(samples[len(samples)-1].Biases))
		bound := float64(res.Bounds.MaxDeviation)
		timeToBound := "-"
		for _, s := range samples {
			if stats.Spread(toFloats(s.Biases)) <= bound {
				timeToBound = formatFloat(float64(s.At))
				break
			}
		}
		converged := final <= bound
		t.AddRow(float64(spread), final, converged, timeToBound)
		t.AddCheck(fmt.Sprintf("spread %v converged below Δ", spread), converged)
	}
	return t
}
