package network

import (
	"fmt"

	"clocksync/internal/simtime"
)

// DelayModel samples the one-way latency of a message from processor `from`
// to processor `to`. The paper assumes a delivery bound δ between non-faulty
// processors; models used in bound-checking experiments must keep their
// samples ≤ δ, while models used for failure injection may exceed it (a late
// message is indistinguishable from a lost one once MaxWait passes).
type DelayModel interface {
	Sample(from, to int, src *SplitMix64) simtime.Duration
	// Bound returns the model's worst-case latency δ (simtime.Infinity if
	// unbounded). Protocol parameter derivation uses it.
	Bound() simtime.Duration
}

// MinBounder is an optional DelayModel refinement reporting a guaranteed
// lower latency bound: every Sample is ≥ MinBound. The sharded simulator
// uses it as the conservative lookahead — the window within which shards may
// run in parallel without missing a cross-shard delivery. Models that cannot
// promise a positive minimum simply omit the method; MinDelay then reports
// zero and sharded runs fall back to a single serial shard.
type MinBounder interface {
	MinBound() simtime.Duration
}

// MinDelay returns the model's guaranteed minimum latency, or zero when the
// model does not implement MinBounder.
func MinDelay(m DelayModel) simtime.Duration {
	if mb, ok := m.(MinBounder); ok {
		return mb.MinBound()
	}
	return 0
}

// ConstantDelay delivers every message after exactly D.
type ConstantDelay struct {
	D simtime.Duration
}

// Sample implements DelayModel.
func (c ConstantDelay) Sample(_, _ int, _ *SplitMix64) simtime.Duration { return c.D }

// Bound implements DelayModel.
func (c ConstantDelay) Bound() simtime.Duration { return c.D }

// MinBound implements MinBounder.
func (c ConstantDelay) MinBound() simtime.Duration { return c.D }

// UniformDelay samples latencies uniformly from [Min, Max].
type UniformDelay struct {
	Min, Max simtime.Duration
}

// NewUniformDelay validates and returns a uniform model.
func NewUniformDelay(min, max simtime.Duration) UniformDelay {
	if min < 0 || max < min {
		panic(fmt.Sprintf("network: bad uniform delay [%v, %v]", min, max))
	}
	return UniformDelay{Min: min, Max: max}
}

// Sample implements DelayModel.
func (u UniformDelay) Sample(_, _ int, src *SplitMix64) simtime.Duration {
	return u.Min + simtime.Duration(src.Float64())*(u.Max-u.Min)
}

// Bound implements DelayModel.
func (u UniformDelay) Bound() simtime.Duration { return u.Max }

// MinBound implements MinBounder.
func (u UniformDelay) MinBound() simtime.Duration { return u.Min }

// AsymmetricDelay gives each direction of each link its own uniform range:
// messages from a lower-numbered to a higher-numbered processor take
// [FwdMin, FwdMax], the reverse direction [RevMin, RevMax]. Asymmetry is the
// classic worst case for ping-based offset estimation (§3.1): the estimate's
// error approaches half the asymmetry.
type AsymmetricDelay struct {
	FwdMin, FwdMax simtime.Duration
	RevMin, RevMax simtime.Duration
}

// Sample implements DelayModel.
func (a AsymmetricDelay) Sample(from, to int, src *SplitMix64) simtime.Duration {
	if from < to {
		return a.FwdMin + simtime.Duration(src.Float64())*(a.FwdMax-a.FwdMin)
	}
	return a.RevMin + simtime.Duration(src.Float64())*(a.RevMax-a.RevMin)
}

// Bound implements DelayModel.
func (a AsymmetricDelay) Bound() simtime.Duration {
	return simtime.MaxDuration(a.FwdMax, a.RevMax)
}

// MinBound implements MinBounder.
func (a AsymmetricDelay) MinBound() simtime.Duration {
	return simtime.MinDuration(a.FwdMin, a.RevMin)
}

// SkewedDelay is the packet-preserving asymmetric link-delay attacker of the
// "Resilience Bounds of Network Clock Synchronization with Fault Correction"
// model: the adversary never drops a message or exceeds the latency bound —
// it only skews the two directions of cross-group links. Processors below
// Boundary form group A, the rest group B; every A→B message takes ≈Slow,
// every B→A message ≈Fast, and in-group traffic uses the modest symmetric
// InGroup range. The ping estimator (§3.1) attributes half the round-trip
// asymmetry to clock offset — with opposite signs on the two sides of the
// boundary — so the trimmed-midpoint convergence function drives the groups
// apart to a stable split of (Slow−Fast)/2: the largest persistent deviation
// any delay-only adversary can force, and exactly the per-reading ε
// absorption Theorem 5's envelope must cover.
//
// Declared, when positive, overrides Bound(): the model *claims* that δ even
// when Slow exceeds it. That is the designed-to-fail out-of-δ variant — the
// checker derives its envelope from a bound the network silently violates —
// used by the campaign's delayskew! family.
type SkewedDelay struct {
	Boundary   int              // first processor of group B
	Slow, Fast simtime.Duration // cross-group directional delays (A→B, B→A)
	InGroup    UniformDelay     // symmetric in-group delay range
	Declared   simtime.Duration // lying Bound() override (0 = honest maximum)
}

// Sample implements DelayModel. Both directional delays carry a little
// downward jitter so no two deliveries tie at the same instant.
func (s SkewedDelay) Sample(from, to int, src *SplitMix64) simtime.Duration {
	fromA, toA := from < s.Boundary, to < s.Boundary
	switch {
	case fromA == toA:
		return s.InGroup.Sample(from, to, src)
	case fromA: // A→B: the slow direction
		return s.Slow - simtime.Duration(src.Float64())*(s.Slow/32)
	default: // B→A: the fast direction
		return s.Fast/2 + simtime.Duration(src.Float64())*(s.Fast/2)
	}
}

// Bound implements DelayModel.
func (s SkewedDelay) Bound() simtime.Duration {
	if s.Declared > 0 {
		return s.Declared
	}
	return simtime.MaxDuration(s.Slow, s.InGroup.Max)
}

// MinBound implements MinBounder.
func (s SkewedDelay) MinBound() simtime.Duration {
	return simtime.MinDuration(s.Fast/2, s.InGroup.Min)
}

// SpikyDelay models a network whose latency is usually Base-ish but
// occasionally spikes: with probability SpikeProb the sample gets an extra
// uniform [0, SpikeMax] added. Used to evaluate the min-RTT-of-k estimation
// refinement (E10) and timeout handling.
type SpikyDelay struct {
	Base      UniformDelay
	SpikeProb float64
	SpikeMax  simtime.Duration
}

// Sample implements DelayModel.
func (s SpikyDelay) Sample(from, to int, src *SplitMix64) simtime.Duration {
	d := s.Base.Sample(from, to, src)
	if src.Float64() < s.SpikeProb {
		d += simtime.Duration(src.Float64()) * s.SpikeMax
	}
	return d
}

// Bound implements DelayModel.
func (s SpikyDelay) Bound() simtime.Duration { return s.Base.Max + s.SpikeMax }

// MinBound implements MinBounder.
func (s SpikyDelay) MinBound() simtime.Duration { return s.Base.Min }

// DelayFunc adapts a function to the DelayModel interface; BoundVal reports
// its worst case and MinVal its guaranteed minimum (leave MinVal zero when
// the function has no positive floor).
type DelayFunc struct {
	Fn       func(from, to int, src *SplitMix64) simtime.Duration
	BoundVal simtime.Duration
	MinVal   simtime.Duration
}

// MinBound implements MinBounder.
func (d DelayFunc) MinBound() simtime.Duration { return d.MinVal }

// Sample implements DelayModel.
func (d DelayFunc) Sample(from, to int, src *SplitMix64) simtime.Duration {
	return d.Fn(from, to, src)
}

// Bound implements DelayModel.
func (d DelayFunc) Bound() simtime.Duration { return d.BoundVal }
