package clock

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"clocksync/internal/simtime"
)

func TestDriftingRead(t *testing.T) {
	c := NewDrifting(100, 50, 1.0)
	if got := c.Read(100); got != 50 {
		t.Fatalf("Read at origin: got %v, want 50", got)
	}
	if got := c.Read(110); got != 60 {
		t.Fatalf("Read: got %v, want 60", got)
	}
	fast := NewDrifting(0, 0, 1.5)
	if got := fast.Read(10); got != 15 {
		t.Fatalf("fast Read: got %v, want 15", got)
	}
}

func TestDriftingRealAtInvertsRead(t *testing.T) {
	f := func(originU, offsetU, slopeU, targetU float64) bool {
		if anyBad(originU, offsetU, slopeU, targetU) {
			return true
		}
		origin := simtime.Time(math.Mod(originU, 1e6))
		offset := simtime.Time(math.Mod(offsetU, 1e6))
		slope := 0.5 + math.Mod(math.Abs(slopeU), 1.0) // [0.5, 1.5)
		c := NewDrifting(origin, offset, slope)
		target := offset + simtime.Time(math.Mod(math.Abs(targetU), 1e6))
		tau := c.RealAt(target, origin)
		reading := c.Read(tau)
		return math.Abs(float64(reading-target)) < 1e-6 || tau == origin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDriftingRealAtClampsToAfter(t *testing.T) {
	c := NewDrifting(0, 0, 1.0)
	// Clock reads 100 at τ=100; asking for target 50 after τ=80 clamps.
	if got := c.RealAt(50, 80); got != 80 {
		t.Fatalf("RealAt clamp: got %v, want 80", got)
	}
}

func TestNonPositiveSlopePanics(t *testing.T) {
	for _, slope := range []float64{0, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("slope %v must panic", slope)
				}
			}()
			NewDrifting(0, 0, slope)
		}()
	}
}

func TestSlopeBounds(t *testing.T) {
	lo, hi := SlopeBounds(0.01)
	if math.Abs(lo-1/1.01) > 1e-12 || math.Abs(hi-1.01) > 1e-12 {
		t.Fatalf("SlopeBounds: got (%v, %v)", lo, hi)
	}
}

func TestEquationTwoHolds(t *testing.T) {
	// A clock with slope inside SlopeBounds(ρ) must satisfy Equation 2 for
	// all interval pairs.
	rho := 0.05
	lo, hi := SlopeBounds(rho)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		slope := lo + rng.Float64()*(hi-lo)
		c := NewDrifting(0, 0, slope)
		t1 := simtime.Time(rng.Float64() * 1000)
		t2 := t1 + simtime.Time(rng.Float64()*1000)
		dH := float64(c.Read(t2) - c.Read(t1))
		dT := float64(t2 - t1)
		if dH < dT/(1+rho)-1e-9 || dH > dT*(1+rho)+1e-9 {
			t.Fatalf("Equation 2 violated: slope=%v dT=%v dH=%v", slope, dT, dH)
		}
	}
}

func TestQuantized(t *testing.T) {
	smooth := NewDrifting(0, 0, 1.0)
	q := smooth.WithTick(0.25)
	cases := []struct {
		at   simtime.Time
		want simtime.Time
	}{
		{0, 0}, {0.1, 0}, {0.25, 0.25}, {0.6, 0.5}, {1.01, 1.0},
	}
	for _, tc := range cases {
		if got := q.Read(tc.at); math.Abs(float64(got-tc.want)) > 1e-12 {
			t.Errorf("Read(%v): got %v, want %v", tc.at, got, tc.want)
		}
	}
	// Readings are monotone non-decreasing and within one tick of the truth.
	prev := q.Read(0)
	for tau := simtime.Time(0); tau < 10; tau += 0.07 {
		got := q.Read(tau)
		if got < prev {
			t.Fatalf("quantized clock went backwards at %v", tau)
		}
		raw := smooth.Read(tau)
		if raw-got < 0 || raw-got >= 0.25+1e-12 {
			t.Fatalf("quantization error out of range at %v: raw=%v got=%v", tau, raw, got)
		}
		prev = got
	}
	// RealAt inverts the smooth clock.
	if got := q.RealAt(5, 0); math.Abs(float64(got-5)) > 1e-12 {
		t.Fatalf("RealAt: got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero tick must panic")
		}
	}()
	NewDrifting(0, 0, 1).WithTick(0)
}

func TestQuantizedLocalClockStillSynchronizes(t *testing.T) {
	// A Local over a ticked hardware clock keeps working (the tick just
	// adds reading error).
	l := NewLocal(NewDrifting(0, 0, 1.0).WithTick(0.001))
	l.Adjust(0, 1)
	if got := l.Now(5.0005); math.Abs(float64(got-6.0)) > 1e-9 {
		t.Fatalf("quantized local: got %v", got)
	}
}

func TestLocalClock(t *testing.T) {
	hw := NewDrifting(0, 0, 1.0)
	l := NewLocal(hw)
	if got := l.Now(10); got != 10 {
		t.Fatalf("Now: got %v", got)
	}
	l.Adjust(3, 5)
	if got := l.Now(10); got != 15 {
		t.Fatalf("Now after Adjust: got %v", got)
	}
	if got := l.Bias(10); got != 5 {
		t.Fatalf("Bias: got %v", got)
	}
	l.Adjust(4, -2)
	if got := l.Adj(); got != 3 {
		t.Fatalf("Adj accumulation: got %v", got)
	}
	l.SetGain(6, 0.5)
	if got, want := l.Steps(), []Step{{At: 3, Delta: 5}, {At: 4, Delta: -2}}; !slices.Equal(got, want) {
		t.Fatalf("step log %v, want %v", got, want)
	}
	if got, want := l.Gains(), []GainStep{{At: 6, Gain: 0.5}}; !slices.Equal(got, want) {
		t.Fatalf("gain log %v, want %v", got, want)
	}
	if l.Hardware() != hw {
		t.Fatal("Hardware accessor broken")
	}
}

func TestBiasTracksDrift(t *testing.T) {
	// With slope 1+r the bias of an unadjusted clock grows linearly at rate r.
	l := NewLocal(NewDrifting(0, 0, 1.001))
	b1 := l.Bias(100)
	b2 := l.Bias(200)
	if math.Abs(float64(b2-b1)-0.1) > 1e-9 {
		t.Fatalf("bias growth: got %v, want 0.1", b2-b1)
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
