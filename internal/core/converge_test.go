package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
	"clocksync/internal/stats"
)

// est builds an exact estimate (a=0) of offset d.
func est(d float64) protocol.Estimate {
	return protocol.Estimate{D: simtime.Duration(d), A: 0, OK: true}
}

// estA builds an estimate of offset d with error bound a.
func estA(d, a float64) protocol.Estimate {
	return protocol.Estimate{D: simtime.Duration(d), A: simtime.Duration(a), OK: true}
}

func failed() protocol.Estimate { return protocol.FailedEstimate(0) }

func TestConvergeAllAgreeingIsIdentity(t *testing.T) {
	// All processors report offset 0 → no adjustment.
	ests := []protocol.Estimate{est(0), est(0), est(0), est(0)}
	delta, ok := Converge(1, 10, ests)
	if !ok || delta != 0 {
		t.Fatalf("got (%v, %v)", delta, ok)
	}
}

func TestConvergeClippedBranchHandComputed(t *testing.T) {
	// f=1, WayOff=10. Estimates (exact): self 0 and peers {1, 2, 3, 100}.
	// overs = unders = {0, 1, 2, 3, 100}.
	// m = 2nd smallest = 1; M = 2nd largest = 3.
	// Clipped branch: m ≥ −10 and M ≤ 10 → delta = (min(1,0)+max(3,0))/2 = 1.5.
	ests := []protocol.Estimate{est(0), est(1), est(2), est(3), est(100)}
	delta, ok := Converge(1, 10, ests)
	if !ok || math.Abs(float64(delta)-1.5) > 1e-12 {
		t.Fatalf("got (%v, %v), want 1.5", delta, ok)
	}
}

func TestConvergeHalfwayWhenOwnClockOutsideRange(t *testing.T) {
	// Own clock below the trimmed range but within WayOff: move half-way.
	// f=1, WayOff=100. Estimates: self 0, peers {8, 9, 10, 11}.
	// m = 2nd smallest of {0,8,9,10,11} = 8; M = 2nd largest = 10.
	// delta = (min(8,0)+max(10,0))/2 = (0+10)/2 = 5 — half-way, not all the way.
	ests := []protocol.Estimate{est(0), est(8), est(9), est(10), est(11)}
	delta, ok := Converge(1, 100, ests)
	if !ok || math.Abs(float64(delta)-5) > 1e-12 {
		t.Fatalf("got (%v, %v), want 5", delta, ok)
	}
}

func TestConvergeWayOffBranchJumpsToMidpoint(t *testing.T) {
	// Own clock very far (peers all report ≈ +1000, beyond WayOff=10):
	// m = 2nd smallest of {0, 999, 1000, 1001, 1002} = 999
	// M = 2nd largest = 1001; m ≥ −10 holds but M > 10 → else branch:
	// delta = (999+1001)/2 = 1000 — the full jump that makes recovery fast.
	ests := []protocol.Estimate{est(0), est(999), est(1000), est(1001), est(1002)}
	delta, ok := Converge(1, 10, ests)
	if !ok || math.Abs(float64(delta)-1000) > 1e-12 {
		t.Fatalf("got (%v, %v), want 1000", delta, ok)
	}
}

func TestConvergeNegativeWayOffBranch(t *testing.T) {
	// Symmetric case: peers far below.
	ests := []protocol.Estimate{est(0), est(-999), est(-1000), est(-1001), est(-1002)}
	delta, ok := Converge(1, 10, ests)
	if !ok || math.Abs(float64(delta)+1000) > 1e-12 {
		t.Fatalf("got (%v, %v), want -1000", delta, ok)
	}
}

func TestConvergeUsesErrorBounds(t *testing.T) {
	// Overestimates and underestimates diverge when a > 0.
	// f=1: ests self(0±0), peers 4±1, 6±2, 8±1.
	// overs  = {0, 5, 8, 9}  → m = 2nd smallest = 5
	// unders = {0, 3, 4, 7}  → M = 2nd largest = 4
	// delta = (min(5,0)+max(4,0))/2 = 2.
	ests := []protocol.Estimate{est(0), estA(4, 1), estA(6, 2), estA(8, 1)}
	delta, ok := Converge(1, 100, ests)
	if !ok || math.Abs(float64(delta)-2) > 1e-12 {
		t.Fatalf("got (%v, %v), want 2", delta, ok)
	}
}

func TestConvergeTimeoutsActAsExtremes(t *testing.T) {
	// A failed estimate contributes +∞ over and −∞ under; with f=1 a single
	// failure is trimmed and the rest decide.
	ests := []protocol.Estimate{est(0), est(2), est(4), failed()}
	// overs = {0, 2, 4, +inf} → m = 2nd smallest = 2
	// unders = {0, 2, 4, -inf} → M = 2nd largest = 2
	delta, ok := Converge(1, 100, ests)
	if !ok || math.Abs(float64(delta)-1) > 1e-12 {
		t.Fatalf("got (%v, %v), want 1", delta, ok)
	}
}

func TestConvergeTooManyFailuresIsUnsafe(t *testing.T) {
	// With f=1 and two failures among four estimates, both trimmed extremes
	// can be infinite; the function must refuse to adjust.
	ests := []protocol.Estimate{est(0), failed(), failed(), failed()}
	if _, ok := Converge(1, 100, ests); ok {
		t.Fatal("expected ok=false with 3 failures of 4")
	}
}

func TestConvergeTooFewEstimates(t *testing.T) {
	if _, ok := Converge(2, 100, []protocol.Estimate{est(0), est(1)}); ok {
		t.Fatal("expected ok=false with fewer than 2f+1 estimates")
	}
}

func TestConvergeFZero(t *testing.T) {
	// f=0 degenerates to min/max without trimming.
	ests := []protocol.Estimate{est(0), est(10)}
	// m = 1st smallest = 0, M = 1st largest = 10 → (min(0,0)+max(10,0))/2 = 5.
	delta, ok := Converge(0, 100, ests)
	if !ok || delta != 5 {
		t.Fatalf("got (%v, %v), want 5", delta, ok)
	}
}

func TestConvergeNegationSymmetry(t *testing.T) {
	f := func(raw []int8, fRaw uint8) bool {
		if len(raw) < 3 {
			return true
		}
		fv := int(fRaw) % (len(raw) / 2)
		if len(raw) < 2*fv+1 {
			return true
		}
		pos := make([]protocol.Estimate, len(raw))
		neg := make([]protocol.Estimate, len(raw))
		for i, v := range raw {
			pos[i] = est(float64(v))
			neg[i] = est(-float64(v))
		}
		d1, ok1 := Converge(fv, 50, pos)
		d2, ok2 := Converge(fv, 50, neg)
		return ok1 == ok2 && math.Abs(float64(d1+d2)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvergeMonotoneInEachEstimate(t *testing.T) {
	// Increasing any single estimate's offset never decreases the output —
	// the property that lets the proof bound the convergence function by
	// bounding its inputs.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		n := 4 + rng.Intn(6)
		fv := rng.Intn(n / 3)
		if n < 2*fv+1 {
			continue
		}
		ests := make([]protocol.Estimate, n)
		for i := range ests {
			ests[i] = est(rng.NormFloat64() * 20)
		}
		wayOffV := simtime.Duration(5 + rng.Float64()*30)
		d1, ok1 := Converge(fv, wayOffV, ests)
		if !ok1 {
			t.Fatal("unexpected unsafe with finite estimates")
		}
		// Bump one estimate upward.
		i := rng.Intn(n)
		bumped := append([]protocol.Estimate(nil), ests...)
		bumped[i] = est(float64(bumped[i].D) + rng.Float64()*30)
		d2, _ := Converge(fv, wayOffV, bumped)
		if float64(d2) < float64(d1)-1e-9 {
			t.Fatalf("monotonicity violated: %v -> %v after raising estimate %d", d1, d2, i)
		}
	}
}

func TestConvergeByzantineContainment(t *testing.T) {
	// Property 1 of the proof, in function form: with n ≥ 3f+1 and all
	// honest over/underestimates inside [−X, X] (X ≤ WayOff), f arbitrary
	// Byzantine estimates cannot push the adjusted clock outside [−X, X];
	// in fact |delta| ≤ X/2, and the WayOff branch is never taken.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 2000; trial++ {
		fv := 1 + rng.Intn(3)
		n := 3*fv + 1 + rng.Intn(4)
		x := 1 + rng.Float64()*10
		wayOffV := simtime.Duration(x * (1 + rng.Float64()))
		ests := make([]protocol.Estimate, 0, n)
		// n−f honest estimates with over/under inside [−X, X].
		for i := 0; i < n-fv; i++ {
			d := (rng.Float64()*2 - 1) * x
			maxA := math.Min(x-math.Abs(d), x/4)
			a := rng.Float64() * math.Max(maxA, 0)
			ests = append(ests, estA(d, a))
		}
		// f Byzantine estimates anywhere, including failures.
		for i := 0; i < fv; i++ {
			if rng.Intn(4) == 0 {
				ests = append(ests, failed())
			} else {
				ests = append(ests, est(rng.NormFloat64()*1e6))
			}
		}
		rng.Shuffle(len(ests), func(i, j int) { ests[i], ests[j] = ests[j], ests[i] })
		delta, jumped, ok := ConvergeVerdict(fv, wayOffV, ests)
		if !ok {
			t.Fatalf("trial %d: unexpectedly unsafe", trial)
		}
		if math.Abs(float64(delta)) > x/2+1e-9 {
			t.Fatalf("trial %d: |delta|=%v exceeds X/2=%v", trial, delta, x/2)
		}
		if jumped {
			t.Fatalf("trial %d: WayOff branch taken despite honest majority in range", trial)
		}
	}
}

func TestConvergeMatchesSortOracle(t *testing.T) {
	// The quickselect order statistics must agree with a plain sort.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 1000; trial++ {
		n := 3 + rng.Intn(10)
		fv := rng.Intn((n + 1) / 2)
		if n < 2*fv+1 {
			continue
		}
		ests := make([]protocol.Estimate, n)
		overs := make([]float64, n)
		unders := make([]float64, n)
		for i := range ests {
			d := rng.NormFloat64() * 10
			a := rng.Float64() * 3
			ests[i] = estA(d, a)
			overs[i] = d + a
			unders[i] = d - a
		}
		sort.Float64s(overs)
		sort.Float64s(unders)
		m := overs[fv]            // (f+1)-st smallest
		mm := unders[n-fv-1]      // (f+1)-st largest
		w := 5 + rng.Float64()*20 // random WayOff
		var want float64
		if m >= -w && mm <= w {
			want = (math.Min(m, 0) + math.Max(mm, 0)) / 2
		} else {
			want = (m + mm) / 2
		}
		got, ok := Converge(fv, simtime.Duration(w), ests)
		if !ok || math.Abs(float64(got)-want) > 1e-9 {
			t.Fatalf("trial %d: got (%v, %v), oracle %v", trial, got, ok, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{F: 1, SyncInt: 10, MaxWait: 1, WayOff: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{F: -1, SyncInt: 10, MaxWait: 1, WayOff: 5},
		{F: 1, SyncInt: 10, MaxWait: 0, WayOff: 5},
		{F: 1, SyncInt: 1, MaxWait: 1, WayOff: 5},
		{F: 1, SyncInt: 10, MaxWait: 1, WayOff: 0},
		{F: 1, SyncInt: 10, MaxWait: 1, WayOff: 5, FirstSync: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestKthSelectAdversarialInputs(t *testing.T) {
	// Sorted, reverse-sorted, constant and infinite-laden inputs.
	inputs := [][]float64{
		{1, 2, 3, 4, 5, 6, 7},
		{7, 6, 5, 4, 3, 2, 1},
		{5, 5, 5, 5, 5},
		{math.Inf(1), 1, math.Inf(-1), 2, 3},
	}
	for _, in := range inputs {
		for k := 1; k <= len(in); k++ {
			cp1 := append([]float64(nil), in...)
			cp2 := append([]float64(nil), in...)
			sort.Float64s(cp2)
			if got := stats.KthSmallest(cp1, k); got != cp2[k-1] {
				t.Fatalf("stats.KthSmallest(%v, %d) = %v, want %v", in, k, got, cp2[k-1])
			}
			cp3 := append([]float64(nil), in...)
			if got := stats.KthLargest(cp3, k); got != cp2[len(in)-k] {
				t.Fatalf("stats.KthLargest(%v, %d) = %v, want %v", in, k, got, cp2[len(in)-k])
			}
		}
	}
}
