// Package clock models processor clocks per Definition 1 of the paper.
//
// Each processor p owns an unresettable hardware clock H_p and an adjustment
// variable adj_p; its logical clock is C_p(τ) = H_p(τ) + adj_p. The hardware
// clock is a smooth, monotonically increasing function of real time whose
// rate is bounded by the drift bound ρ (Equation 2):
//
//	(τ2−τ1)/(1+ρ) ≤ H_p(τ2) − H_p(τ1) ≤ (τ2−τ1)·(1+ρ)
//
// The simulator's runs realize hardware clocks as Drifting lines, one slope
// per processor drawn inside that envelope; Piecewise can also express drift
// rates that change during a run, though no scenario builds one.
package clock

import (
	"fmt"
	"math"
	"sort"

	"clocksync/internal/simtime"
)

// Hardware is a processor's unresettable hardware clock H_p.
type Hardware interface {
	// Read returns H(now), the hardware reading at real time now.
	Read(now simtime.Time) simtime.Time
	// RealAt returns the real time τ ≥ after at which the hardware clock
	// reads target. It is used to convert "wake me when my clock reads h"
	// alarms into simulator events. If the clock already reads past target
	// at time after, RealAt returns after.
	RealAt(target simtime.Time, after simtime.Time) simtime.Time
}

// SlopeBounds returns the [min, max] slope dH/dτ allowed by drift bound rho
// per Equation 2.
func SlopeBounds(rho float64) (lo, hi float64) {
	return 1 / (1 + rho), 1 + rho
}

// Drifting is a hardware clock with a constant drift: H(τ) = offset + slope·(τ−origin).
type Drifting struct {
	origin simtime.Time
	offset simtime.Time
	slope  float64
}

// NewDrifting returns a clock that reads offset at real time origin and
// advances with the given slope (1.0 = perfect; 1+ρ = fastest allowed).
func NewDrifting(origin, offset simtime.Time, slope float64) *Drifting {
	c := new(Drifting)
	c.Init(origin, offset, slope)
	return c
}

// Init makes c the clock NewDrifting returns, in place, for clocks kept in a
// slab (a scenario run holds its n clocks in one).
func (c *Drifting) Init(origin, offset simtime.Time, slope float64) {
	if slope <= 0 {
		panic(fmt.Sprintf("clock: non-positive slope %v", slope))
	}
	*c = Drifting{origin: origin, offset: offset, slope: slope}
}

// Read implements Hardware.
func (c *Drifting) Read(now simtime.Time) simtime.Time {
	return c.offset + simtime.Time(c.slope*float64(now-c.origin))
}

// RealAt implements Hardware.
func (c *Drifting) RealAt(target, after simtime.Time) simtime.Time {
	t := c.origin + simtime.Time(float64(target-c.offset)/c.slope)
	if t < after {
		return after
	}
	return t
}

// Slope returns the clock's rate dH/dτ.
func (c *Drifting) Slope() float64 { return c.slope }

// segment is one linear piece of a piecewise clock.
type segment struct {
	start  simtime.Time // real time the segment begins
	offset simtime.Time // H(start)
	slope  float64
}

// Piecewise is a hardware clock whose rate changes at given real times. It
// models oscillators whose drift varies with temperature or age while still
// satisfying Equation 2 piece by piece.
type Piecewise struct {
	segs []segment
}

// NewPiecewise returns a piecewise clock that reads offset at real time
// origin with the given initial slope. Additional pieces are appended with
// ChangeSlope.
func NewPiecewise(origin, offset simtime.Time, slope float64) *Piecewise {
	if slope <= 0 {
		panic(fmt.Sprintf("clock: non-positive slope %v", slope))
	}
	return &Piecewise{segs: []segment{{start: origin, offset: offset, slope: slope}}}
}

// ChangeSlope switches the clock to a new rate at real time at, which must
// not precede the previous change. The reading stays continuous.
func (c *Piecewise) ChangeSlope(at simtime.Time, slope float64) {
	if slope <= 0 {
		panic(fmt.Sprintf("clock: non-positive slope %v", slope))
	}
	last := c.segs[len(c.segs)-1]
	if at < last.start {
		panic(fmt.Sprintf("clock: slope change at %v precedes segment start %v", at, last.start))
	}
	c.segs = append(c.segs, segment{
		start:  at,
		offset: last.offset + simtime.Time(last.slope*float64(at-last.start)),
		slope:  slope,
	})
}

// segmentAt returns the segment active at real time now. Reads before the
// first segment extrapolate it backwards.
func (c *Piecewise) segmentAt(now simtime.Time) segment {
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].start > now })
	if i == 0 {
		return c.segs[0]
	}
	return c.segs[i-1]
}

// Read implements Hardware.
func (c *Piecewise) Read(now simtime.Time) simtime.Time {
	s := c.segmentAt(now)
	return s.offset + simtime.Time(s.slope*float64(now-s.start))
}

// RealAt implements Hardware.
func (c *Piecewise) RealAt(target, after simtime.Time) simtime.Time {
	// Hardware clocks are strictly increasing, so scan segments from the one
	// active at `after` until one contains the target reading.
	start := after
	if c.Read(after) >= target {
		return after
	}
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].start > start })
	if i > 0 {
		i--
	}
	for ; i < len(c.segs); i++ {
		s := c.segs[i]
		t := s.start + simtime.Time(float64(target-s.offset)/s.slope)
		if t < s.start {
			t = s.start
		}
		// The candidate is valid if it falls inside this segment.
		if i+1 == len(c.segs) || t < c.segs[i+1].start {
			if t < after {
				return after
			}
			return t
		}
	}
	panic("clock: unreachable — strictly increasing clock must attain target")
}

// Quantized wraps a hardware clock whose readings are only available at a
// finite tick granularity, as real oscillator/counter hardware provides:
// Read returns the underlying value truncated to a multiple of Tick. This
// adds up to one Tick of reading error on top of the network-induced ε —
// the estimation experiments use it to model coarse clocks. RealAt inverts
// against the underlying smooth clock (alarms fire when the true clock
// crosses the target; only *readings* are coarse).
type Quantized struct {
	HW   Hardware
	Tick simtime.Duration
}

// NewQuantized validates and wraps.
func NewQuantized(hw Hardware, tick simtime.Duration) *Quantized {
	if tick <= 0 {
		panic(fmt.Sprintf("clock: non-positive tick %v", tick))
	}
	return &Quantized{HW: hw, Tick: tick}
}

// Read implements Hardware.
func (q *Quantized) Read(now simtime.Time) simtime.Time {
	raw := float64(q.HW.Read(now))
	t := float64(q.Tick)
	return simtime.Time(math.Floor(raw/t) * t)
}

// RealAt implements Hardware.
func (q *Quantized) RealAt(target, after simtime.Time) simtime.Time {
	return q.HW.RealAt(target, after)
}

// Local is a processor's logical clock C_p = H_p + adj_p. The only
// operations the paper's protocol performs are reading the sum and adding to
// the adjustment variable — exactly the interface Definition 1 grants.
//
// As an extension beyond the paper's model (the NTP-style drift feedback §5
// lists as future work), Local also supports a frequency discipline: a gain
// g makes the logical clock advance at (1+g)× the hardware rate from the
// moment the gain is set, without disturbing the current reading. With
// g = 0 (the default and the paper's model) the clock is exactly H + adj.
//
// Every write is logged with its real-time instant: the steps of the
// adjustment variable (Steps) and the changes of the gain (Gains). With the
// hardware clock, the two logs are the clock's whole trajectory, which is
// what a run's report is measured from.
type Local struct {
	hw  Hardware
	adj simtime.Duration

	gain      float64          // logical rate = hardware rate × (1+gain)
	gainSince simtime.Time     // hardware reading when gain last changed
	gainAcc   simtime.Duration // gain-induced offset accumulated before gainSince

	steps []Step
	gains []GainStep
}

// Step is one write to the adjustment variable: Delta added at real time At.
type Step struct {
	At    simtime.Time
	Delta simtime.Duration
}

// GainStep is one change of the frequency discipline: gain Gain from real
// time At on.
type GainStep struct {
	At   simtime.Time
	Gain float64
}

// NewLocal wraps a hardware clock with a zero adjustment.
func NewLocal(hw Hardware) *Local {
	l := new(Local)
	l.Init(hw)
	return l
}

// Init makes l the clock NewLocal returns, in place, for clocks kept in a
// slab: zero adjustment and gain, empty logs.
func (l *Local) Init(hw Hardware) { *l = Local{hw: hw} }

// Now returns C(now) = H(now) + adj, plus any discipline-accumulated offset.
func (l *Local) Now(now simtime.Time) simtime.Time {
	h := l.hw.Read(now)
	disc := l.gainAcc + simtime.Duration(l.gain*float64(h-l.gainSince))
	return h.Add(l.adj + disc)
}

// Adjust adds delta to the adjustment variable at real time at, and logs
// the step. A clock is written by the one event queue that runs its
// processor, so its logs are in time order.
func (l *Local) Adjust(at simtime.Time, delta simtime.Duration) {
	l.adj += delta
	l.steps = append(l.steps, Step{At: at, Delta: delta})
}

// LogInto restarts the step log, empty, in buf's storage: a log that stays
// within cap(buf) allocates nothing, and one that outgrows it moves to
// storage of its own. LogInto(nil) lets go of storage another run may
// reuse.
func (l *Local) LogInto(buf []Step) { l.steps = buf[:0] }

// Steps returns every step made so far, in time order.
func (l *Local) Steps() []Step { return l.steps }

// Gains returns every gain change made so far, in time order.
func (l *Local) Gains() []GainStep { return l.gains }

// Adj returns the current adjustment value. Exposed for measurement only;
// the protocol itself never reads it (the paper stresses H and adj are a
// mathematical convenience, not observable state).
func (l *Local) Adj() simtime.Duration { return l.adj }

// Bias returns B(τ) = C(τ) − τ, the quantity the paper's analysis tracks.
func (l *Local) Bias(now simtime.Time) simtime.Duration {
	return l.Now(now).Sub(now)
}

// Hardware returns the underlying hardware clock (for alarm scheduling).
func (l *Local) Hardware() Hardware { return l.hw }

// SetGain changes the frequency discipline at real time now, and logs the
// change: from here on the logical clock advances at (1+gain)× the hardware
// rate. The reading is continuous across the change. This operation is an
// extension beyond Definition 1 (see the type comment); the core protocol
// only uses it when drift compensation is explicitly enabled.
func (l *Local) SetGain(now simtime.Time, gain float64) {
	h := l.hw.Read(now)
	l.gainAcc += simtime.Duration(l.gain * float64(h-l.gainSince))
	l.gainSince = h
	l.gain = gain
	l.gains = append(l.gains, GainStep{At: now, Gain: gain})
}

// Gain returns the current frequency discipline.
func (l *Local) Gain() float64 { return l.gain }
