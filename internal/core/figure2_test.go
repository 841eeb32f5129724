package core

import (
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
	"clocksync/internal/stats"
)

// figure2Step implements the bias formulation of Figure 2 literally: given
// processor p's bias B_p, the biases reported for the others as
// over/underestimates B̄_q = B_p + d̄_q and B̲_q = B_p + d̲_q, compute the
// new bias directly:
//
//	B(m) = (f+1)-st smallest overestimate of a bias
//	B(M) = (f+1)-st largest underestimate of a bias
//	if B_p − B(m) ≤ WayOff and B(M) − B_p ≤ WayOff:
//	    B_p ← (min(B(m), B_p) + max(B(M), B_p)) / 2
//	else:
//	    B_p ← (B(m) + B(M)) / 2
func figure2Step(f int, wayOff, bp float64, ests []protocol.Estimate) float64 {
	overs := make([]float64, len(ests))
	unders := make([]float64, len(ests))
	for i, e := range ests {
		overs[i] = bp + float64(e.Over())
		unders[i] = bp + float64(e.Under())
	}
	bm := stats.KthSmallest(overs, f+1)
	bM := stats.KthLargest(unders, f+1)
	if bp-bm <= wayOff && bM-bp <= wayOff {
		return (math.Min(bm, bp) + math.Max(bM, bp)) / 2
	}
	return (bm + bM) / 2
}

// TestFigure1Figure2Equivalence checks the identity the analysis rests on:
// the clock-value formulation (Figure 1, what the implementation runs) and
// the bias formulation (Figure 2, what the proof reasons about) produce the
// same result — new bias = old bias + Converge(d-estimates) — for random
// inputs on both branches.
func TestFigure1Figure2Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5000; trial++ {
		n := 4 + rng.Intn(10)
		fv := rng.Intn(n / 3)
		if n < 2*fv+1 {
			continue
		}
		wayOffV := 1 + rng.Float64()*10
		bp := rng.NormFloat64() * 10
		ests := make([]protocol.Estimate, n)
		for i := range ests {
			// Mix of near, far, and exact estimates, plus self.
			var d float64
			switch rng.Intn(3) {
			case 0:
				d = rng.NormFloat64()
			case 1:
				d = rng.NormFloat64() * 50
			default:
				d = 0
			}
			ests[i] = protocol.Estimate{
				D:  simtime.Duration(d),
				A:  simtime.Duration(rng.Float64()),
				OK: true,
			}
		}
		delta, ok := Converge(fv, simtime.Duration(wayOffV), ests)
		if !ok {
			t.Fatalf("trial %d: converge unexpectedly unsafe", trial)
		}
		got := bp + float64(delta)
		want := figure2Step(fv, wayOffV, bp, ests)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: Figure 1 gives %v, Figure 2 gives %v (bp=%v)",
				trial, got, want, bp)
		}
	}
}
