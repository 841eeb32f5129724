// Package clock models processor clocks per Definition 1 of the paper.
//
// Each processor p owns an unresettable hardware clock H_p and an adjustment
// variable adj_p; its logical clock is C_p(τ) = H_p(τ) + adj_p. The hardware
// clock is a smooth, monotonically increasing function of real time whose
// rate is bounded by the drift bound ρ (Equation 2):
//
//	(τ2−τ1)/(1+ρ) ≤ H_p(τ2) − H_p(τ1) ≤ (τ2−τ1)·(1+ρ)
//
// The hardware clock is one type, Drifting: a line, one slope per processor
// drawn inside that envelope, optionally read through a tick. How a clock's
// reading evolves between its writes — the line, the tick, the adjustment
// steps and the gain changes — is computed in this package only: Local reads
// it at one instant, and a Cursor walks it for a run's report.
package clock

import (
	"fmt"
	"math"

	"clocksync/internal/simtime"
)

// SlopeBounds returns the [min, max] slope dH/dτ allowed by drift bound rho
// per Equation 2.
func SlopeBounds(rho float64) (lo, hi float64) {
	return 1 / (1 + rho), 1 + rho
}

// Drifting is a processor's unresettable hardware clock H_p, with a constant
// drift: H(τ) = offset + slope·(τ−origin), read at the granularity of its
// tick when it has one.
type Drifting struct {
	origin simtime.Time
	offset simtime.Time
	slope  float64
	tick   simtime.Duration // 0: readings are not truncated
}

// NewDrifting returns a clock that reads offset at real time origin and
// advances with the given slope (1.0 = perfect; 1+ρ = fastest allowed).
func NewDrifting(origin, offset simtime.Time, slope float64) Drifting {
	if slope <= 0 {
		panic(fmt.Sprintf("clock: non-positive slope %v", slope))
	}
	return Drifting{origin: origin, offset: offset, slope: slope}
}

// WithTick returns c with readings only available at a finite tick
// granularity, as real oscillator/counter hardware provides: Read truncates
// the smooth reading to a multiple of tick. This adds up to one tick of
// reading error on top of the network-induced ε — the estimation
// experiments use it to model coarse clocks. RealAt inverts the smooth clock
// (alarms fire when the true clock crosses the target; only *readings* are
// coarse).
func (c Drifting) WithTick(tick simtime.Duration) Drifting {
	if tick <= 0 {
		panic(fmt.Sprintf("clock: non-positive tick %v", tick))
	}
	c.tick = tick
	return c
}

// smooth is the clock's line at now, before any tick truncates it.
func (c Drifting) smooth(now simtime.Time) simtime.Time {
	return c.offset + simtime.Time(c.slope*float64(now-c.origin))
}

// Read returns H(now), the hardware reading at real time now, floored to a
// multiple of the tick when the clock has one.
func (c Drifting) Read(now simtime.Time) simtime.Time {
	h := c.smooth(now)
	if c.tick > 0 {
		t := float64(c.tick)
		return simtime.Time(math.Floor(float64(h)/t) * t)
	}
	return h
}

// RealAt returns the real time τ ≥ after at which the smooth clock reads
// target. It is used to convert "wake me when my clock reads h" alarms into
// simulator events. If the clock already reads past target at time after,
// RealAt returns after.
func (c Drifting) RealAt(target, after simtime.Time) simtime.Time {
	t := c.origin + simtime.Time(float64(target-c.offset)/c.slope)
	if t < after {
		return after
	}
	return t
}

// Tick returns the clock's reading granularity, 0 if it has none.
func (c Drifting) Tick() simtime.Duration { return c.tick }

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
// what a run's report is measured from, through a Cursor.
type Local struct {
	hw  Drifting
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
func NewLocal(hw Drifting) *Local {
	l := new(Local)
	l.Init(hw)
	return l
}

// Init makes l the clock NewLocal returns, in place, for clocks kept in a
// slab: zero adjustment and gain, empty logs.
func (l *Local) Init(hw Drifting) { *l = Local{hw: hw} }

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
func (l *Local) Hardware() Drifting { return l.hw }

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

// Cursor walks a clock's trajectory over its logs, for a run's report: after
// the clock's first steps steps and gains gain changes, and before its next
// write at next, its bias reads a + b·τ, less (1+g)·(h − Q(h)) when a tick Q
// truncates its hardware reading h = h0 + hs·τ, where b = (1+g)·hs − 1. The
// tick's truncation is of the reading Read truncates, so the two agree on
// which tick an instant falls in. A cursor holds no clock: each method takes
// the one it walks.
type Cursor struct {
	a, b         float64
	next         simtime.Time
	steps, gains int32
}

// Cursor returns l's trajectory before its first write.
func (l *Local) Cursor() Cursor {
	c := Cursor{a: float64(l.hw.smooth(0)), b: l.hw.slope - 1}
	c.Advance(l, simtime.Time(math.Inf(-1)))
	return c
}

// Advance makes l's writes up to t on c and moves Next on.
func (c *Cursor) Advance(l *Local, t simtime.Time) {
	for ; int(c.steps) < len(l.steps) && l.steps[c.steps].At <= t; c.steps++ {
		c.a += float64(l.steps[c.steps].Delta)
	}
	for ; int(c.gains) < len(l.gains) && l.gains[c.gains].At <= t; c.gains++ {
		// The clock is continuous across a gain change g → g' at the
		// hardware reading q, so a moves by (g'−g)·(h0−q).
		h0, hs, tick := float64(l.hw.smooth(0)), l.hw.slope, float64(l.hw.tick)
		q := float64(l.hw.smooth(l.gains[c.gains].At))
		if tick > 0 {
			q = math.Floor(q/tick) * tick
		}
		g := l.gains[c.gains].Gain
		c.a += (1 + g - (c.b+1)/hs) * (h0 - q)
		c.b = (1+g)*hs - 1
	}
	c.next = simtime.Time(math.Inf(1))
	if int(c.steps) < len(l.steps) {
		c.next = l.steps[c.steps].At
	}
	if int(c.gains) < len(l.gains) {
		c.next = min(c.next, l.gains[c.gains].At)
	}
}

// Bias returns l's bias at t, which must lie between the writes c has made
// and Next.
func (c *Cursor) Bias(l *Local, t simtime.Time) simtime.Duration {
	v := c.a + c.b*float64(t)
	if tick := float64(l.hw.tick); tick > 0 {
		h := float64(l.hw.smooth(t))
		v -= (c.b + 1) / l.hw.slope * (h - math.Floor(h/tick)*tick)
	}
	return simtime.Duration(v)
}

// Next returns the instant of the clock's next write, +Inf if none is left.
func (c *Cursor) Next() simtime.Time { return c.next }

// Rate returns b, the bias's rate between the writes (a tick aside).
func (c *Cursor) Rate() float64 { return c.b }

// Made returns how many of the clock's steps c has made.
func (c *Cursor) Made() int { return int(c.steps) }
