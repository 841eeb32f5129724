// Recovery demo: a mobile adversary breaks into processors one after
// another, smashing each clock by minutes. Every victim rejoins within the
// recovery horizon — the paper's headline property — and the demo prints
// each victim's trajectory back into the good range.
package main

import (
	"fmt"
	"log"
	"math"

	"clocksync"
)

func main() {
	n, f := 7, 2
	theta := 3 * clocksync.Minute

	// A rotating adversary: every victim's clock is smashed by ±90 s, far
	// beyond the deviation bound, then released to recover on its own. No
	// fault or recovery detection exists anywhere in the protocol.
	sched := clocksync.RotateAdversary(n, f, clocksync.Time(2*theta),
		30*clocksync.Second, theta, 10,
		func(node int) clocksync.Behavior {
			off := 90 * clocksync.Second
			if node%2 == 1 {
				off = -off
			}
			return clocksync.ClockSmash{Offset: off, Quiet: true}
		})

	res, err := clocksync.RunScenario(clocksync.Scenario{
		Name:      "recovery-demo",
		Seed:      7,
		N:         n,
		F:         f,
		Duration:  90 * clocksync.Minute,
		Theta:     theta,
		Rho:       1e-4,
		Adversary: sched,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Mobile adversary recovery demo")
	fmt.Printf("  %d corruptions over %d processors (f=%d per Θ=%v window)\n\n",
		len(sched.Corruptions), n, f, theta)
	fmt.Println("  node  released at  smashed by   recovered in  (horizon Θ)")
	for _, rv := range res.Report.Recoveries {
		status := "NEVER — bug!"
		if rv.Ok {
			status = fmt.Sprint(rv.Time())
		}
		fmt.Printf("  %4d  %11v  %10v  %12s\n",
			rv.Node, rv.ReleasedAt, rv.InitialDistance, status)
	}

	// The recovery trajectory halves per analysis interval T (Lemma 7(iii)):
	// print the victim-to-good-range distance for the first corruption.
	first := sched.Corruptions[0]
	fmt.Printf("\n  distance of node %d to the good range after release (halving per T=%v):\n",
		first.Node, res.Bounds.T)
	samples := res.Recorder.Samples()
	release := first.To
	for i := 0; i < 8; i++ {
		at := release.Add(clocksync.Duration(i) * res.Bounds.T)
		dist := distanceAt(samples, first.Node, at)
		bar := int(math.Min(60, dist/float64(res.Bounds.MaxDeviation)*2))
		fmt.Printf("    +%dT  %8.3fs  %s\n", i, dist, repeat('#', bar))
	}
	fmt.Printf("\n  max good-set deviation over the whole run: %v (bound %v)\n",
		res.Report.MaxDeviation, res.Bounds.MaxDeviation)
}

// distanceAt finds the victim's distance to the other processors' bias range
// at the sample closest after `at`.
func distanceAt(samples []clocksync.Sample, node int, at clocksync.Time) float64 {
	for _, s := range samples {
		if s.At >= at {
			dist, _ := s.DistanceToGood(node)
			return float64(dist)
		}
	}
	return 0
}

func repeat(c byte, n int) string {
	if n < 0 {
		n = 0
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = c
	}
	return string(out)
}
