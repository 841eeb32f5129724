package clock

import (
	"math"
	"math/rand"
	"testing"

	"clocksync/internal/simtime"
)

func TestGainZeroIsIdentity(t *testing.T) {
	l := NewLocal(NewDrifting(0, 0, 1.0))
	l.Adjust(0, 3)
	if got := l.Now(10); got != 13 {
		t.Fatalf("Now with zero gain: got %v", got)
	}
	if l.Gain() != 0 {
		t.Fatal("default gain must be 0")
	}
}

func TestGainChangesRate(t *testing.T) {
	l := NewLocal(NewDrifting(0, 0, 1.0))
	l.SetGain(100, 0.01)
	// Reading continuous at the change point.
	if got := l.Now(100); math.Abs(float64(got-100)) > 1e-9 {
		t.Fatalf("discontinuous at gain change: %v", got)
	}
	// After 10 s at gain 0.01 the clock leads by 0.1 s.
	if got := l.Now(110); math.Abs(float64(got-110.1)) > 1e-9 {
		t.Fatalf("gain rate: got %v, want 110.1", got)
	}
}

func TestGainComposesWithHardwareDrift(t *testing.T) {
	// Hardware at 1.002, gain −0.002: logical rate ≈ 1.002·0.998 ≈ 0.999996.
	l := NewLocal(NewDrifting(0, 0, 1.002))
	l.SetGain(0, -0.002)
	got := float64(l.Now(1000) - l.Now(0))
	want := 1000 * 1.002 * 0.998
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("composed rate: got %v, want %v", got, want)
	}
}

func TestGainAccumulationAcrossChanges(t *testing.T) {
	// Several gain changes; the reading must stay continuous and the
	// accumulated offsets must add up.
	l := NewLocal(NewDrifting(0, 0, 1.0))
	l.SetGain(0, 0.1)   // [0,10): +0.1/s
	before := l.Now(10) // 10 + 1.0
	l.SetGain(10, -0.05)
	after := l.Now(10)
	if math.Abs(float64(after-before)) > 1e-12 {
		t.Fatalf("gain change discontinuity: %v vs %v", before, after)
	}
	// At τ=20: 20 + 1.0 (first epoch) − 0.5 (second epoch) = 20.5.
	if got := l.Now(20); math.Abs(float64(got-20.5)) > 1e-12 {
		t.Fatalf("accumulated gain: got %v, want 20.5", got)
	}
	if got := l.Gain(); got != -0.05 {
		t.Fatalf("Gain: got %v", got)
	}
}

func TestGainRandomizedContinuity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLocal(NewDrifting(0, 0, 1.0001))
	tau := simtime.Time(0)
	for i := 0; i < 200; i++ {
		tau += simtime.Time(rng.Float64() * 20)
		before := l.Now(tau)
		l.SetGain(tau, (rng.Float64()*2-1)*1e-3)
		after := l.Now(tau)
		if math.Abs(float64(after-before)) > 1e-9 {
			t.Fatalf("step %d: discontinuity %v", i, after-before)
		}
		// Clock must remain strictly increasing over the next instant.
		if l.Now(tau+1) <= l.Now(tau) {
			t.Fatalf("step %d: clock not increasing", i)
		}
	}
}

func TestGainInteractsWithAdjust(t *testing.T) {
	l := NewLocal(NewDrifting(0, 0, 1.0))
	l.SetGain(0, 0.01)
	l.Adjust(0, 5)
	// τ=100: 100 + 1.0 (gain) + 5 (adj) = 106.
	if got := l.Now(100); math.Abs(float64(got-106)) > 1e-9 {
		t.Fatalf("gain+adjust: got %v", got)
	}
	if got := l.Bias(100); math.Abs(float64(got-6)) > 1e-9 {
		t.Fatalf("bias with gain: got %v", got)
	}
}
