package experiments

import (
	"fmt"

	"clocksync/internal/adversary"
	"clocksync/internal/asciiplot"
	"clocksync/internal/baseline"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
	"clocksync/internal/stats"
)

// protocolEntry names a protocol under comparison.
type protocolEntry struct {
	name    string
	builder scenario.Builder // nil = Sync
}

func comparedProtocols() []protocolEntry {
	return []protocolEntry{
		{"Sync (paper)", nil},
		{"BoundedCF (FC95-style)", baseline.BoundedCFBuilder(0)},
		{"RoundMidpoint (WL88-style)", baseline.RoundMidpointBuilder()},
		{"SrikanthToueg (ST87-style)", baseline.SrikanthTouegBuilder()},
		{"NTPSlew", baseline.NTPSlewBuilder(2)},
	}
}

// E04RecoveryVsBaselines reproduces Table 3: §1.1's claim that
// minimal-correction convergence functions may never complete recovery,
// while Sync recovers in O(log(offset/Δ)) rounds. Round-based and
// resynchronization baselines fail or degrade for their own structural
// reasons (round mismatch; linear catch-up).
func E04RecoveryVsBaselines(quick bool) Table {
	t := Table{
		ID:      "E4",
		Title:   "Recovery time (s) after a clock smash, by protocol and offset",
		Columns: []string{"protocol", "+1s", "+16s", "+64s", "+256s"},
		Notes: "Sync recovers every offset in a few rounds (logarithmic); BoundedCF needs " +
			"offset/clamp rounds (linear, stalls in-run for large offsets); RoundMidpoint never " +
			"recovers once the clock is epochs away; SrikanthToueg waits ≈offset for forward " +
			"smashes; NTP steps recover but without Byzantine trimming. '∞' = not recovered in-run.",
	}
	offsets := []simtime.Duration{1, 16, 64, 256}
	duration := simtime.Duration(scaled(quick, 1500, 900))
	recovered := map[string][]bool{}
	for _, p := range comparedProtocols() {
		row := []any{p.name}
		for _, off := range offsets {
			s := scenario.Scenario{
				Name:     fmt.Sprintf("e4-%s-%v", p.name, off),
				Seed:     400,
				N:        7,
				F:        2,
				Duration: duration,
				Theta:    4 * simtime.Minute,
				Rho:      1e-4,
				Builder:  p.builder,
				Adversary: adversary.Schedule{Corruptions: []adversary.Corruption{{
					Node: 6, From: 60, To: 61,
					Behavior: adversary.ClockSmash{Offset: off, Quiet: true},
				}}},
			}
			res := mustRun(s)
			rv := res.Report.Recoveries[0]
			recovered[p.name] = append(recovered[p.name], rv.Ok)
			if rv.Ok {
				row = append(row, float64(rv.Time()))
			} else {
				row = append(row, "∞")
			}
		}
		t.AddRow(row...)
	}
	allOf := func(bs []bool) bool {
		for _, b := range bs {
			if !b {
				return false
			}
		}
		return true
	}
	sync := recovered["Sync (paper)"]
	t.AddCheck("Sync recovers every offset", allOf(sync))
	bcf := recovered["BoundedCF (FC95-style)"]
	t.AddCheck("BoundedCF stalls on large offsets (≥64 s) in-run",
		len(bcf) == 4 && !bcf[2] && !bcf[3])
	rm := recovered["RoundMidpoint (WL88-style)"]
	t.AddCheck("RoundMidpoint never recovers far round epochs (≥64 s)",
		len(rm) == 4 && !rm[2] && !rm[3])
	return t
}

// E08MessageOverhead reproduces Table 5: the cost argument of §1.1 against
// broadcast-based protocols — Sync exchanges Θ(n) fixed-size messages per
// processor per synchronization, the DHSS-style broadcast Θ(n²) with
// growing signature chains.
func E08MessageOverhead(quick bool) Table {
	t := Table{
		ID:    "E8",
		Title: "Message and byte cost per processor per synchronization",
		Columns: []string{"n", "Sync msgs", "Bcast msgs", "msg ratio",
			"Sync bytes", "Bcast bytes", "byte ratio"},
		Notes: "Sync sends 2(n−1) fixed-size messages per processor per round (ping+echo); the " +
			"broadcast protocol floods ≈(n−1)² relays with hop-growing signatures. Expected " +
			"shape: ratios grow linearly with n.",
	}
	duration := simtime.Duration(scaled(quick, 900, 480))
	var ratios []float64
	for _, n := range []int{4, 7, 10, 13} {
		f := (n - 1) / 3
		run := func(b scenario.Builder) (msgsPerSync, bytesPerSync float64) {
			res := mustRun(scenario.Scenario{
				Name:     fmt.Sprintf("e8-n%d", n),
				Seed:     int64(800 + n),
				N:        n,
				F:        f,
				Duration: duration,
				Theta:    4 * simtime.Minute,
				Rho:      1e-4,
				Builder:  b,
			})
			// Normalize per processor per sync interval.
			syncsPerNode := float64(duration) / float64(res.Scenario.SyncInt)
			return float64(res.MsgsSent) / float64(n) / syncsPerNode,
				float64(res.BytesSent) / float64(n) / syncsPerNode
		}
		sm, sb := run(nil)
		bm, bb := run(baseline.BroadcastJoinBuilder())
		t.AddRow(n, sm, bm, bm/sm, sb, bb, bb/sb)
		t.AddCheck(fmt.Sprintf("n=%d: broadcast costs more messages than Sync", n), bm > sm)
		ratios = append(ratios, bm/sm)
	}
	t.AddCheck("message-cost ratio grows with n (Θ(n) separation)",
		len(ratios) >= 2 && ratios[len(ratios)-1] > ratios[0])
	return t
}

// E09Discontinuity reproduces Table 6: Theorem 5(ii)'s discontinuity bound
// ψ = ε + C/2 for Sync, against the larger jumps of round-based and
// resynchronization protocols.
func E09Discontinuity(quick bool) Table {
	t := Table{
		ID:    "E9",
		Title: "Clock smoothness in steady state: single adjustments and the Equation 3 envelope",
		Columns: []string{"protocol", "max |adjust| (s)", "net drawdown (s)",
			"net runup (s)", "ψ literal (s)", "step bound Δ/2+ε (s)"},
		Notes: "Theorem 5(ii) bounds how far a good clock departs from its rate envelope " +
			"(Equation 3). We report both the largest single adjustment and the net " +
			"drawdown/runup against the ρ̃ rate lines. The literal OCR reading ψ = ε + C/2 is " +
			"shown for reference; the provable bounds checked here are Δ/2+ε per step and Δ " +
			"net (see DESIGN.md on the mangled formula). Expected shape: Sync's values sit well " +
			"under the bounds and below the resynchronization baseline's jumps.",
	}
	duration := simtime.Duration(scaled(quick, 3600, 600))
	for _, p := range comparedProtocols() {
		res := mustRun(scenario.Scenario{
			Name:       fmt.Sprintf("e9-%s", p.name),
			Seed:       900,
			N:          7,
			F:          2,
			Duration:   duration,
			Theta:      4 * simtime.Minute,
			Rho:        1e-4,
			InitSpread: 50 * simtime.Millisecond,
			Builder:    p.builder,
		})
		step := float64(res.Report.MaxDiscontinuity)
		draw := float64(res.Report.AccuracyDrawdown)
		run := float64(res.Report.AccuracyRunup)
		t.AddRow(p.name, step, draw, run,
			float64(res.Bounds.Discontinuity), float64(res.Bounds.MaxStep))
		if p.builder == nil {
			t.AddCheck("Sync single adjustments within Δ/2+ε",
				step <= float64(res.Bounds.MaxStep))
			t.AddCheck("Sync net drawdown/runup within Δ",
				draw <= float64(res.Bounds.MaxDeviation) && run <= float64(res.Bounds.MaxDeviation))
		}
	}
	return t
}

// E06ResilienceThreshold reproduces Table 4: the n ≥ 3f+1 requirement. A
// two-faced (split-brain) adversary pins each half of the good processors
// to its own clock when n = 3f, so relative drift separates them without
// bound; with one more processor the larger half wins and deviation stays
// bounded.
func E06ResilienceThreshold(quick bool) Table {
	t := Table{
		ID:    "E6",
		Title: "Resilience threshold: split-brain attack at n=3f vs n=3f+1",
		Columns: []string{"n", "f", "model", "deviation @end (s)", "bound Δ (s)",
			"bounded?"},
		Notes: "With n=3f the two-faced liars keep the trimmed range pinned to each half's own " +
			"values, so the halves drift apart at ≈2ρ per second, unboundedly. With n=3f+1 the " +
			"larger half outnumbers the trimming and the cluster converges. Expected shape: " +
			"n=6 diverges past Δ; n=7 stays bounded.",
	}
	f := 2
	duration := simtime.Duration(scaled(quick, 2*3600, 1800))
	rho := 1e-3 // exaggerated drift makes the divergence rate visible in-run
	for _, n := range []int{3 * f, 3*f + 1} {
		// Good group A = ids [0,2), good group B = [2, n−f), liars = last f.
		slopes := make([]float64, n)
		for i := range slopes {
			switch {
			case i < 2:
				slopes[i] = 1 + rho
			case i < n-f:
				slopes[i] = 1 / (1 + rho)
			default:
				slopes[i] = 1
			}
		}
		liars := []int{n - 2, n - 1}
		sched := adversary.Static(liars, 1, simtime.Time(duration),
			func(int) protocol.Behavior {
				return adversary.SplitBrain{Boundary: 2, Offset: 30 * simtime.Second}
			})
		res := mustRun(scenario.Scenario{
			Name:           fmt.Sprintf("e6-n%d", n),
			Seed:           600,
			N:              n,
			F:              f,
			Duration:       duration,
			Theta:          4 * simtime.Minute,
			Rho:            rho,
			Slopes:         slopes,
			Adversary:      sched,
			SkipValidation: n < 3*f+1,
		})
		// Deviation among the non-faulty processors at the end of the run.
		samples := res.Recorder.Samples()
		last := samples[len(samples)-1]
		var good []float64
		for i := 0; i < n-f; i++ {
			good = append(good, float64(last.Biases[i]))
		}
		dev := stats.Spread(good)
		model := "n=3f"
		if n == 3*f+1 {
			model = "n=3f+1"
		}
		bounded := dev <= float64(res.Bounds.MaxDeviation)
		t.AddRow(n, f, model, dev, float64(res.Bounds.MaxDeviation), bounded)
		if n == 3*f {
			t.AddCheck("n=3f: split-brain drives good halves past Δ (divergent)", !bounded)
		} else {
			t.AddCheck("n=3f+1: same attack stays bounded", bounded)
		}
	}
	return t
}

// E07TwoClique reproduces Figure C: the §5 counterexample. Two cliques of
// 3f+1 processors joined by a perfect matching form a (3f+1)-connected
// graph, yet the protocol cannot keep the cliques synchronized with each
// other: each clique's trimming discards its single inter-clique neighbor,
// so relative drift separates the cliques while intra-clique deviation
// stays tight.
func E07TwoClique(quick bool) Table {
	f := 1
	t := Table{
		ID:    "E7",
		Title: "Two-clique counterexample: (3f+1)-connectivity is not sufficient (§5)",
		Columns: []string{"topology", "intra-clique dev (s)", "inter-clique gap (s)",
			"bound Δ (s)"},
		Notes: "Each node trims f+1 extremes; its one matching neighbor is always trimmed, so no " +
			"information flows between cliques and their clocks separate at the relative drift " +
			"rate. Expected shape: tiny intra-clique deviation, inter-clique gap growing ≈2ρt; " +
			"the full-mesh control stays bounded.",
	}
	duration := simtime.Duration(scaled(quick, 2*3600, 1800))
	rho := 1e-3
	size := 3*f + 1
	n := 2 * size
	slopes := make([]float64, n)
	for i := range slopes {
		if i < size {
			slopes[i] = 1 + rho
		} else {
			slopes[i] = 1 / (1 + rho)
		}
	}
	var gapSeries map[string][]float64
	var xs []float64
	finalGap := map[string]float64{}
	finalIntra := map[string]float64{}
	var boundDelta float64
	for _, topo := range []string{"two-clique", "full-mesh"} {
		s := scenario.Scenario{
			Name:         "e7-" + topo,
			Seed:         700,
			N:            n,
			F:            f,
			Duration:     duration,
			Theta:        4 * simtime.Minute,
			Rho:          rho,
			Slopes:       slopes,
			SamplePeriod: simtime.Duration(float64(duration) / 120),
		}
		if topo == "two-clique" {
			s.Topology = network.NewTwoCliques(f)
		}
		res := mustRun(s)
		samples := res.Recorder.Samples()
		last := samples[len(samples)-1]
		intra, inter := cliqueGaps(last.Biases, size)
		t.AddRow(topo, intra, inter, float64(res.Bounds.MaxDeviation))
		finalGap[topo] = inter
		finalIntra[topo] = intra
		boundDelta = float64(res.Bounds.MaxDeviation)

		if gapSeries == nil {
			gapSeries = map[string][]float64{}
		}
		var ys []float64
		xs = xs[:0]
		for _, smp := range samples {
			_, g := cliqueGaps(smp.Biases, size)
			ys = append(ys, g)
			xs = append(xs, float64(smp.At))
		}
		gapSeries[topo] = ys
	}
	t.Figure = asciiplot.Line(xs, gapSeries, asciiplot.Options{
		Width: 64, Height: 12, YLabel: "inter-clique gap (s)", XLabel: "real time (s)",
	})
	t.AddCheck("two-clique: cliques drift past Δ despite (3f+1)-connectivity",
		finalGap["two-clique"] > boundDelta)
	t.AddCheck("two-clique: intra-clique deviation stays ≤ Δ",
		finalIntra["two-clique"] <= boundDelta)
	t.AddCheck("full-mesh control stays bounded",
		finalGap["full-mesh"] <= boundDelta && finalIntra["full-mesh"] <= boundDelta)
	return t
}

// cliqueGaps returns the worst intra-clique spread and the gap between the
// two cliques' mean biases.
func cliqueGaps(biases []simtime.Duration, size int) (intra, inter float64) {
	mean := func(lo, hi int) float64 {
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += float64(biases[i])
		}
		return sum / float64(hi-lo)
	}
	intra = stats.Spread(toFloats(biases[:size]))
	if s2 := stats.Spread(toFloats(biases[size : 2*size])); s2 > intra {
		intra = s2
	}
	inter = mean(0, size) - mean(size, 2*size)
	if inter < 0 {
		inter = -inter
	}
	return intra, inter
}
