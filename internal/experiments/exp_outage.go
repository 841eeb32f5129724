package experiments

import (
	"fmt"

	"clocksync/internal/asciiplot"
	"clocksync/internal/clock"
	"clocksync/internal/network"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// E20NetworkOutage pushes beyond the model in the other direction from E16:
// instead of random loss, the delivery bound δ itself is violated for a
// window — every message takes 20δ, so every estimation times out and no
// processor can adjust. The paper asks a cousin of this in §5 ("what
// happens if the adversary was too powerful for a while, and now it is back
// to being f-limited?"): guarantees are void during the violation, and the
// question is whether they return afterwards.
//
// During the outage the protocol fails safe — the convergence function
// refuses to adjust on all-timeout rounds, clocks free-run, and deviation
// grows at the relative drift rate exactly as if no protocol existed. Once
// δ holds again the next completed Sync round restores the deviation to its
// steady-state band: the protocol is self-healing across temporary model
// violations, with no operator action and no state to repair (roundless
// design paying off once more).
func E20NetworkOutage(quick bool) Table {
	t := Table{
		ID:    "E20",
		Title: "Temporary model violation: delivery bound broken for a window, then restored",
		Columns: []string{"phase", "window (s)", "peak deviation (s)", "vs Δ",
			"syncs completed"},
		Notes: "All messages take 20δ during the outage window, so every estimate times out and " +
			"clocks free-run (the convergence function refuses unsafe adjustments). Expected " +
			"shape: deviation ≤ Δ before; grows ≈ 2ρ·t during (pure drift — no wild jumps, " +
			"because failing estimations are inert, not poisonous); snaps back under Δ within " +
			"a round or two after δ is restored.",
	}
	const (
		n   = 7
		f   = 2
		rho = 1e-3 // exaggerated so the outage drift is clearly visible
	)
	// The outage drift needs the full window to cross Δ; the run is cheap
	// (<0.2 s wall), so keep full length even in quick mode.
	duration := simtime.Duration(scaled(quick, 3600, 3600))
	outageStart, outageEnd := 0.4*float64(duration), 0.6*float64(duration)
	base := network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond)
	// The outage flag is closure state shared between the delay model
	// (sampled at send time) and the simulator events that toggle it.
	outage := false
	delay := network.DelayFunc{
		Fn: func(from, to int, src *network.SplitMix64) simtime.Duration {
			d := base.Sample(from, to, src)
			if outage {
				return d * 20
			}
			return d
		},
		BoundVal: base.Bound(), // the *claimed* bound; the outage violates it
	}

	// Slopes span the Equation 2 envelope so the outage drifts the 2ρ·t the
	// checks read: drawn, seven rates span under 0.63 of it one time in five.
	lo, hi := clock.SlopeBounds(rho)
	slopes := make([]float64, n)
	for i := range slopes {
		slopes[i] = lo + (hi-lo)*float64(i)/(n-1)
	}
	s := scenario.Scenario{
		Name:         "e20-outage",
		Seed:         2000,
		N:            n,
		F:            f,
		Duration:     duration,
		Theta:        5 * simtime.Minute,
		Rho:          rho,
		Slopes:       slopes,
		Delay:        delay,
		InitSpread:   50 * simtime.Millisecond,
		SamplePeriod: 5 * simtime.Second,
	}
	// Toggle the outage with simulator events: Builder gives us access to
	// the sim through the first node's harness.
	first := true
	inner := scenario.SyncBuilder(nil)
	s.Builder = func(ctx scenario.BuildContext) scenario.Starter {
		if first {
			first = false
			sim := ctx.Harness.Sim()
			sim.At(simtime.Time(outageStart), func() { outage = true })
			sim.At(simtime.Time(outageEnd), func() { outage = false })
		}
		return inner(ctx)
	}
	res := mustRun(s)

	samples := res.Recorder.Samples()
	phasePeak := func(lo, hi float64) float64 {
		peak := 0.0
		for _, smp := range samples {
			at := float64(smp.At)
			if at >= lo && at < hi {
				if d := float64(smp.Deviation); d > peak {
					peak = d
				}
			}
		}
		return peak
	}
	bound := float64(res.Bounds.MaxDeviation)
	settle := 3 * float64(res.Bounds.T) // a couple of rounds to re-converge
	before := phasePeak(120, outageStart)
	during := phasePeak(outageStart, outageEnd)
	after := phasePeak(outageEnd+settle, float64(duration))
	syncs := 0
	for _, st := range res.SyncStats {
		if st != nil {
			syncs += st.Syncs
		}
	}
	t.AddRow("before (model holds)", fmt.Sprintf("[120, %.0f)", outageStart), before, before/bound, "-")
	t.AddRow("outage (δ violated ×20)", fmt.Sprintf("[%.0f, %.0f)", outageStart, outageEnd), during, during/bound, "-")
	t.AddRow("after (model restored)", fmt.Sprintf("[%.0f, %.0f)", outageEnd+settle, float64(duration)), after, after/bound, fmt.Sprint(syncs))

	ts, devs := res.Recorder.DeviationSeries()
	t.Figure = asciiplot.Line(ts, map[string][]float64{"deviation": devs},
		asciiplot.Options{Width: 68, Height: 12, YLabel: "good-set deviation (s)", XLabel: "real time (s)"})

	t.AddCheck("before the outage: deviation ≤ Δ", before <= bound)
	t.AddCheck("during the outage: clocks free-run (deviation grows past Δ)", during > bound)
	t.AddCheck("no wild jumps during the outage (peak ≈ drift accumulation, not runaway)",
		during <= 2*rho*(outageEnd-outageStart)+before+0.05)
	t.AddCheck("after restoration: deviation back ≤ Δ within a few rounds", after <= bound)
	return t
}
