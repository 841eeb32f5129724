// Package analysis computes the paper's analytic quantities: the derived
// protocol parameters, the Theorem 5 performance bounds, and the envelope
// algebra of Appendix A used in the proof (and in our empirical validation
// of Lemma 7).
package analysis

import (
	"errors"
	"fmt"
	"math"

	"clocksync/internal/simtime"
)

// Params collects the network-model constants and protocol settings the
// analysis is parameterized by.
type Params struct {
	N int // number of processors
	F int // adversary's per-period corruption budget

	Rho   float64          // hardware drift bound ρ (Equation 2)
	Delta simtime.Duration // message delivery bound δ
	Theta simtime.Duration // adversary time period Θ (Definition 2)

	SyncInt simtime.Duration // local time between Sync executions
	MaxWait simtime.Duration // estimation timeout (≥ 2δ)
}

// Eps returns the clock-reading error bound Λ of the ping estimator: a
// single ping's error is a = (R−S)/2 ≤ (1+ρ)·MaxWait/2.
func (p Params) Eps() simtime.Duration {
	return simtime.Duration((1 + p.Rho) * float64(p.MaxWait) / 2)
}

// T returns the analysis interval length T = (1+ρ)·SyncInt + 2·MaxWait
// (§4): every non-faulty processor completes between one and two full Syncs
// in any real-time window of length T.
func (p Params) T() simtime.Duration {
	return simtime.Duration((1+p.Rho)*float64(p.SyncInt)) + 2*p.MaxWait
}

// K returns K = ⌊Θ/T⌋, the number of analysis intervals per adversary
// period. Theorem 5 requires K ≥ 5.
func (p Params) K() int {
	return int(math.Floor(float64(p.Theta) / float64(p.T())))
}

// C returns the recovery-residue constant C = (17ε + 18ρT)/2^(K−3) of
// Theorem 5. It decays geometrically in K: the more Syncs fit in an
// adversary period, the closer the protocol gets to drift-optimal.
func (p Params) C() simtime.Duration {
	t := float64(p.T())
	k := p.K()
	return simtime.Duration((17*float64(p.Eps()) + 18*p.Rho*t) / math.Pow(2, float64(k-3)))
}

// WarmupCutoff returns the instant before which a run is still converging
// and steady-state statistics and invariants do not apply: the guarantees
// assume a synchronized start, and from an initial clock spread the cluster
// halves its way into the ε-scale envelope, so it is granted
// 3 + ⌈log₂(spread/ε)⌉ Sync intervals.
func (p Params) WarmupCutoff(spread simtime.Duration) simtime.Time {
	warmSyncs := 3.0
	if eps := p.Eps(); spread > eps && eps > 0 {
		warmSyncs += math.Ceil(math.Log2(float64(spread) / float64(eps)))
	}
	return simtime.Time(warmSyncs * float64(p.SyncInt))
}

// Bounds holds the guarantees of Theorem 5 together with the derived
// constants they are built from.
type Bounds struct {
	Eps           simtime.Duration // reading error Λ
	T             simtime.Duration // analysis interval
	K             int              // intervals per adversary period
	C             simtime.Duration // 2^−K residue
	MaxDeviation  simtime.Duration // Δ = 16ε + 18ρT + 4C   (Theorem 5(i))
	LogicalDrift  float64          // ρ̃ = ρ + C/2T          (Theorem 5(ii))
	Discontinuity simtime.Duration // ψ = ε + C/2            (Theorem 5(ii))
	// MaxStep bounds any single adjustment of a processor that is good and
	// synchronized: the convergence step moves a clock at most halfway
	// across the deviation envelope plus one reading error,
	// |δ| ≤ Δ/2 + ε. (ψ above is the *net* accuracy-envelope bound of
	// Equation 3, not a per-step bound — a single pull toward the midpoint
	// may legitimately exceed it.)
	MaxStep      simtime.Duration
	WayOff       simtime.Duration // recommended WayOff = Δ + ε
	RecoveryTime simtime.Duration // T·⌈log2(WayOff/C)⌉ worst-case rejoin horizon
}

// Derive evaluates Theorem 5 for the given parameters.
func Derive(p Params) (Bounds, error) {
	if err := Validate(p); err != nil {
		return Bounds{}, err
	}
	eps := p.Eps()
	t := p.T()
	k := p.K()
	c := p.C()
	dev := 16*eps + simtime.Duration(18*p.Rho*float64(t)) + 4*c
	b := Bounds{
		Eps:           eps,
		T:             t,
		K:             k,
		C:             c,
		MaxDeviation:  dev,
		LogicalDrift:  p.Rho + float64(c)/(2*float64(t)),
		Discontinuity: eps + c/2,
		MaxStep:       dev/2 + eps,
		WayOff:        dev + eps,
	}
	// Claim 8(iii): a recovering processor's distance from the good envelope
	// halves every interval T (minus C/2 each step), so a processor released
	// at distance ≤ WayOff is within the deviation bound after at most
	// ⌈log2(WayOff/C)⌉ intervals — and always within K intervals = Θ.
	steps := math.Ceil(math.Log2(float64(b.WayOff) / math.Max(float64(c), 1e-12)))
	if steps < 1 {
		steps = 1
	}
	if steps > float64(k) {
		steps = float64(k)
	}
	b.RecoveryTime = simtime.Duration(steps * float64(t))
	return b, nil
}

// MustDerive is Derive for callers with statically-valid parameters.
func MustDerive(p Params) Bounds {
	b, err := Derive(p)
	if err != nil {
		panic(err)
	}
	return b
}

// Validation errors.
var (
	ErrResilience = errors.New("analysis: need n ≥ 3f+1")
	ErrKTooSmall  = errors.New("analysis: Theorem 5 needs K = ⌊Θ/T⌋ ≥ 5")
	ErrMaxWait    = errors.New("analysis: MaxWait must be ≥ 2δ so honest round trips cannot time out")
	ErrSyncInt    = errors.New("analysis: SyncInt must be ≥ 2·MaxWait")
	ErrModel      = errors.New("analysis: model constants must be positive (δ, Θ) and ρ ≥ 0")
)

// Validate checks the constraints the paper places on the parameters:
// n ≥ 3f+1 (§2.2), SyncInt ≥ 2·MaxWait ≥ 4δ (§3.2), and K ≥ 5 (Theorem 5).
func Validate(p Params) error {
	if p.Rho < 0 || p.Delta <= 0 || p.Theta <= 0 {
		return ErrModel
	}
	if p.N < 3*p.F+1 || p.F < 0 || p.N < 1 {
		return fmt.Errorf("%w: n=%d, f=%d", ErrResilience, p.N, p.F)
	}
	if p.MaxWait < 2*p.Delta {
		return fmt.Errorf("%w: MaxWait=%v, δ=%v", ErrMaxWait, p.MaxWait, p.Delta)
	}
	if p.SyncInt < 2*p.MaxWait {
		return fmt.Errorf("%w: SyncInt=%v, MaxWait=%v", ErrSyncInt, p.SyncInt, p.MaxWait)
	}
	if p.K() < 5 {
		return fmt.Errorf("%w: K=%d (Θ=%v, T=%v)", ErrKTooSmall, p.K(), p.Theta, p.T())
	}
	return nil
}

// DefaultParams returns a parameter set representative of a LAN/metro
// deployment: 50 ms delivery bound, 100 ppm drift, 10 s sync interval and a
// 30-minute adversary period. It validates by construction.
func DefaultParams(n, f int) Params {
	return Params{
		N:       n,
		F:       f,
		Rho:     1e-4,
		Delta:   50 * simtime.Millisecond,
		Theta:   30 * simtime.Minute,
		SyncInt: 10 * simtime.Second,
		MaxWait: 100 * simtime.Millisecond,
	}
}
