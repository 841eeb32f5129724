// Package metrics is the one place a run is measured against the paper's
// definitions. A Sample holds one instant: every processor's bias,
// Definition 3's good set — the processors non-faulty throughout [τ−Θ, τ] —
// and the good-set deviation of Theorem 5(i). Envelope (Equation 3) and
// Sample.DistanceToGood (Lemma 7(iii)) hang off a sample. A simulated run's
// Report, and the samples its checker reads, come from one sweep over the
// clocks' trajectories (sweep.go); Measurer takes a live instant.
package metrics

import (
	"fmt"
	"math"
	"sync"

	"clocksync/internal/adversary"
	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

// BiasSource is one processor's clock as an offset from real time: a
// *clock.Local, or a live node's measured offset (livenet's chaos harness).
type BiasSource interface {
	Bias(at simtime.Time) simtime.Duration
}

// Sample is one measurement instant.
type Sample struct {
	At        simtime.Time
	Biases    []simtime.Duration // B_p(τ) per processor
	Good      []bool             // non-faulty during [τ−Θ, τ]
	Deviation simtime.Duration   // max pairwise |C_p−C_q| over the good set
}

// Measurer measures one instant of a run: the processors' clocks, and the
// corruption schedule and adversary period Θ that decide who is good.
type Measurer struct {
	Clocks   []BiasSource
	Schedule adversary.Schedule
	Theta    simtime.Duration
}

// FromClocks adapts simulator clocks to a Measurer's BiasSources.
func FromClocks(clocks []*clock.Local) []BiasSource {
	out := make([]BiasSource, len(clocks))
	for i, c := range clocks {
		out[i] = c
	}
	return out
}

// Measure takes the measurement at instant at into fresh slices. Deviation
// is max − min over the good biases, 0 below two good processors.
func (m *Measurer) Measure(at simtime.Time) Sample {
	return m.measureInto(at, make([]simtime.Duration, len(m.Clocks)), make([]bool, len(m.Clocks)))
}

// measureInto is Measure into biases and good, one entry per clock each.
func (m *Measurer) measureInto(at simtime.Time, biases []simtime.Duration, good []bool) Sample {
	lookback := simtime.Interval{Lo: at.Add(-m.Theta), Hi: at}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, c := range m.Clocks {
		biases[i], good[i] = c.Bias(at), !m.Schedule.ControlledWithin(i, lookback)
		if good[i] {
			lo, hi = math.Min(lo, float64(biases[i])), math.Max(hi, float64(biases[i]))
		}
	}
	return Sample{At: at, Biases: biases, Good: good, Deviation: simtime.Duration(max(hi-lo, 0))}
}

// DistanceToGood measures how far node's bias sits outside the bias range of
// the good processors other than itself (0 when inside). ok is false when no
// other processor is good at that instant.
func (s Sample) DistanceToGood(node int) (dist simtime.Duration, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, g := range s.Good {
		if g && i != node {
			lo, hi, ok = math.Min(lo, float64(s.Biases[i])), math.Max(hi, float64(s.Biases[i])), true
		}
	}
	if !ok {
		return 0, false
	}
	b := float64(s.Biases[node])
	return simtime.Duration(math.Max(0, math.Max(lo-b, b-hi))), true
}

// Envelope is the Equation 3 accuracy state of one processor over one good
// stretch, O(1) per sample: over all pairs τ1 < τ2 of the stretch, the worst
// violation of the lower rate line is the maximum drawdown of
// g(τ) = C(τ) − τ/(1+ρ̃), and of the upper one the maximum runup of
// h(τ) = C(τ) − τ·(1+ρ̃). The zero value is a stretch not yet begun.
type Envelope struct {
	gMax, hMin float64 // running max of g, running min of h
	in         bool
}

// Reset ends the stretch: the next Advance starts a new one.
func (e *Envelope) Reset() { e.in = false }

// Advance extends the stretch to the sample (at, bias) and returns how far
// the clock now sits below the lower line and above the upper line drawn
// from the stretch's earlier samples (0, 0 on its first).
func (e *Envelope) Advance(at simtime.Time, bias simtime.Duration, rhoTilde float64) (drawdown, runup simtime.Duration) {
	tau := float64(at)
	c := tau + float64(bias)
	g := c - tau/(1+rhoTilde)
	h := c - tau*(1+rhoTilde)
	if !e.in {
		e.gMax, e.hMin, e.in = g, h, true
		return 0, 0
	}
	drawdown, runup = simtime.Duration(e.gMax-g), simtime.Duration(h-e.hMin)
	e.gMax, e.hMin = math.Max(e.gMax, g), math.Min(e.hMin, h)
	return drawdown, runup
}

// Recorder measures a run: its report from one sweep over the clocks'
// trajectories after the run, the same on either engine, and a series from
// periodic samples taken live (MeanDeviation, Samples, DeviationSeries,
// OnSample). A sample's Biases and Good are views cut from slabs the
// recorder owns, capped at the processor count and never moved, valid until
// Release; the clocks' step logs are cut from one slab the same way.
type Recorder struct {
	Measurer
	sim      *des.Sim
	clocks   []*clock.Local
	store    *slabs // what Reserve took and Release hands back
	released bool
	samples  []Sample
	biasFree []simtime.Duration // what is left of the current slabs
	goodFree []bool
	onSample func(Sample)
	marks    []mark // the instants At registered
}

type mark struct {
	at simtime.Time
	fn func(Sample)
}

// minSlabSamples is the smallest slab an unreserved recorder adds; slabs grow
// with the samples taken, so their number is logarithmic in the run.
const minSlabSamples = 16

// slabs is one run's measurement storage: the periodic samples' views, the
// clocks' step logs, and the report sweep's state, one entry per clock.
// Nothing stale is read from a reused set: a sample writes its n biases and
// flags before anything reads them, step logs are cut at length 0, and the
// sweep sets each clock's entries before it reads them.
type slabs struct {
	samples     []Sample
	biases      []simtime.Duration
	good        []bool
	steps       []clock.Step
	curs        []clock.Cursor
	bias        []simtime.Duration
	now, spare  []bool
	order, cand []int32
}

// fitSweep sizes the sweep's state for n clocks.
func (st *slabs) fitSweep(n int) {
	st.curs, st.bias, st.order, st.cand = fit(st.curs, n), fit(st.bias, n), fit(st.order, n), fit(st.cand, n)[:0]
	st.now, st.spare = fit(st.now, n), fit(st.spare, n)
}

var slabPool = sync.Pool{New: func() any { return new(slabs) }}

// fit returns s at length n, reusing its array when it is large enough.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewRecorder builds a recorder over the given clocks, with the run's
// corruption schedule and the adversary period Θ that decide the good set.
func NewRecorder(sim *des.Sim, clocks []*clock.Local, sched adversary.Schedule, theta simtime.Duration) *Recorder {
	if theta <= 0 {
		panic(fmt.Sprintf("metrics: non-positive Θ %v", theta))
	}
	return &Recorder{
		Measurer: Measurer{Clocks: FromClocks(clocks), Schedule: sched, Theta: theta},
		sim:      sim,
		clocks:   clocks,
	}
}

// Reserve sizes the recorder, from what released recorders gave back, for up
// to samples periodic samples and steps clock steps per processor, and for
// the report's sweep: within those counts nothing allocates. It panics once
// anything is recorded.
func (r *Recorder) Reserve(samples, steps int) {
	recorded := len(r.samples) > 0
	for _, c := range r.clocks {
		recorded = recorded || len(c.Steps()) > 0
	}
	if recorded {
		panic("metrics: Reserve after the run was recorded")
	}
	n := len(r.Clocks)
	if r.store == nil {
		r.store = slabPool.Get().(*slabs)
	}
	st := r.store
	st.samples = fit(st.samples, samples)
	st.biases = fit(st.biases, samples*n)
	st.good = fit(st.good, samples*n)
	st.steps = fit(st.steps, n*steps)
	st.fitSweep(n)
	r.samples = st.samples[:0]
	r.biasFree, r.goodFree = st.biases, st.good
	for i, c := range r.clocks {
		c.LogInto(st.steps[i*steps : i*steps : (i+1)*steps])
	}
}

// Release gives the storage back for a later Reserve, and the clocks let go
// of their logs. Neither the recorder nor a Sample it handed out may be read
// afterwards: Samples, DeviationSeries and BuildReport panic.
func (r *Recorder) Release() {
	r.released = true
	r.samples, r.biasFree, r.goodFree, r.marks = nil, nil, nil, nil
	for _, c := range r.clocks {
		c.LogInto(nil)
	}
	if r.store != nil {
		slabPool.Put(r.store)
		r.store = nil
	}
}

func (r *Recorder) live() {
	if r.released {
		panic("metrics: recorder read after Release")
	}
}

// OnSample registers the one hook handed every periodic sample (nil
// unregisters); the scenario runner bridges it into the observability stream.
func (r *Recorder) OnSample(fn func(Sample)) { r.onSample = fn }

// At has the report's sweep hand fn the measurement of instant t, after its
// clock writes: check.Checker.Attach's scheduler in a simulation.
func (r *Recorder) At(t simtime.Time, fn func(Sample)) {
	r.marks = append(r.marks, mark{at: t, fn: fn})
}

// Start arms periodic sampling with the given period.
func (r *Recorder) Start(period simtime.Duration) {
	des.NewTicker(r.sim, period, r.TakeSample)
}

// TakeSample records one measurement now, into views of the recorder's slabs.
func (r *Recorder) TakeSample(now simtime.Time) {
	n := len(r.Clocks)
	if len(r.biasFree) < n {
		k := max(len(r.samples), minSlabSamples)
		r.biasFree, r.goodFree = make([]simtime.Duration, k*n), make([]bool, k*n)
	}
	s := r.measureInto(now, r.biasFree[:n:n], r.goodFree[:n:n])
	r.biasFree, r.goodFree = r.biasFree[n:], r.goodFree[n:]
	r.samples = append(r.samples, s)
	if r.onSample != nil {
		r.onSample(s)
	}
}

// Samples returns the periodic samples, valid until Release.
func (r *Recorder) Samples() []Sample {
	r.live()
	return r.samples
}

// DeviationSeries extracts the periodic samples' (time, deviation) pairs.
func (r *Recorder) DeviationSeries() (ts []float64, devs []float64) {
	r.live()
	for _, s := range r.samples {
		ts = append(ts, float64(s.At))
		devs = append(devs, float64(s.Deviation))
	}
	return ts, devs
}

// Report condenses a run; MeanDeviation averages the periodic samples' good
// deviation, every other field comes from the clocks' trajectories.
type Report struct {
	// MaxDeviation is the supremum of the good-set deviation from the
	// measurement start on (Theorem 5(i) measures it against Δ).
	MaxDeviation  simtime.Duration
	MeanDeviation simtime.Duration
	// MaxDiscontinuity is the largest single adjustment, from the
	// measurement start on, by a processor non-faulty throughout the
	// preceding Θ (Theorem 5(ii)'s ψ); MaxAdjustment the largest by anyone
	// the adversary does not control, recovery jumps included.
	MaxDiscontinuity simtime.Duration
	MaxAdjustment    simtime.Duration
	// WorstRate is the largest |rate − 1| of a logical clock between the
	// ends of one of its maximal good stretches (Theorem 5(ii)'s ρ̃).
	WorstRate float64
	// AccuracyDrawdown and AccuracyRunup are Equation 3's worst shortfall
	// below the lower rate line and excess over the upper one, over every
	// pair τ1 < τ2 of a good stretch, which Theorem 5(ii) bounds by ψ:
	//
	//	C(τ2) − C(τ1) ≥ (τ2−τ1)/(1+ρ̃) − ψ  and  ≤ (τ2−τ1)·(1+ρ̃) + ψ.
	AccuracyDrawdown simtime.Duration
	AccuracyRunup    simtime.Duration
	Recoveries       []Recovery // one per release event
}

// Recovery describes how one released processor rejoined: Rejoined is the
// first instant of the sweep from release on at which its bias was within
// the margin of the good range (Ok false if none was), and InitialDistance
// its distance at release.
type Recovery struct {
	Node            int
	ReleasedAt      simtime.Time
	Rejoined        simtime.Time
	Ok              bool
	InitialDistance simtime.Duration
}

// Time returns the measured recovery duration.
func (rv Recovery) Time() simtime.Duration { return rv.Rejoined.Sub(rv.ReleasedAt) }

// ReportOptions tunes report computation. SkipBefore drops earlier instants
// from the deviation, discontinuity and accuracy statistics (warm-up
// transients); RecoveryMargin is the distance from the good range under
// which a released processor counts as rejoined; MinRateWindow is the
// shortest good stretch a rate is measured over; LogicalDriftBound is the ρ̃
// of AccuracyDrawdown/Runup, 0 disabling them.
type ReportOptions struct {
	SkipBefore        simtime.Time
	RecoveryMargin    simtime.Duration
	MinRateWindow     simtime.Duration
	LogicalDriftBound float64
}
