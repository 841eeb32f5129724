// Package metrics is the one place a run is measured against the paper's
// definitions. Measurer.Measure is the kernel: for one instant it reads every
// processor's bias, decides Definition 3's good set — the processors
// non-faulty throughout [τ−Θ, τ] — and takes the good-set deviation of
// Theorem 5(i), all into one Sample. Envelope (Equation 3's drawdown/runup,
// Definition 3(ii)) and Sample.DistanceToGood (Lemma 7(iii)'s distance of a
// recovering processor from the good range) hang off a sample.
//
// Everything that judges a run reads those samples: the Recorder keeps them
// and condenses them offline into a Report, the online checker of
// internal/check asserts the Theorem 5 bounds on them as they are taken, and
// the scenario runner copies them into the observability stream.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"clocksync/internal/adversary"
	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

// BiasSource exposes one processor's clock as an offset from real time at a
// given instant — the only clock access a measurement needs. *clock.Local
// satisfies it directly (simulation runs); live harnesses adapt a running
// node's measurable offset (see livenet's chaos harness). Implementations
// are read at measurement instants only and need not be monotone between
// reads.
type BiasSource interface {
	Bias(at simtime.Time) simtime.Duration
}

// FromClocks adapts simulator clocks to the BiasSource slice a Measurer
// wants.
func FromClocks(clocks []*clock.Local) []BiasSource {
	out := make([]BiasSource, len(clocks))
	for i, c := range clocks {
		out[i] = c
	}
	return out
}

// Sample is one measurement instant.
type Sample struct {
	At        simtime.Time
	Biases    []simtime.Duration // B_p(τ) per processor
	Good      []bool             // non-faulty during [τ−Θ, τ]
	Deviation simtime.Duration   // max pairwise |C_p−C_q| over the good set
}

// Measurer is what it takes to measure one instant of a run: the processors'
// clocks, the corruption schedule that decides who is good, and the adversary
// period Θ.
type Measurer struct {
	Clocks   []BiasSource
	Schedule adversary.Schedule
	Theta    simtime.Duration
}

// Measure takes the measurement at instant at into freshly allocated slices.
// Deviation is max − min over the good biases, 0 when fewer than two
// processors are good.
func (m *Measurer) Measure(at simtime.Time) Sample {
	return m.measureInto(at, make([]simtime.Duration, len(m.Clocks)), make([]bool, len(m.Clocks)))
}

// measureInto is Measure over caller-owned storage: biases and good must
// each hold one entry per clock.
func (m *Measurer) measureInto(at simtime.Time, biases []simtime.Duration, good []bool) Sample {
	s := Sample{At: at, Biases: biases, Good: good}
	lookback := simtime.Interval{Lo: at.Add(-m.Theta), Hi: at}
	var lo, hi simtime.Duration
	none := true
	for i, c := range m.Clocks {
		b := c.Bias(at)
		s.Biases[i] = b
		s.Good[i] = !m.Schedule.ControlledWithin(i, lookback)
		if !s.Good[i] {
			continue
		}
		if none || b < lo {
			lo = b
		}
		if none || b > hi {
			hi = b
		}
		none = false
	}
	s.Deviation = hi - lo
	return s
}

// DistanceToGood measures how far node's bias sits outside the bias range of
// the good processors other than itself (0 when inside). ok is false when no
// other processor is good at that instant.
func (s Sample) DistanceToGood(node int) (dist simtime.Duration, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, g := range s.Good {
		if !g || i == node {
			continue
		}
		b := float64(s.Biases[i])
		lo = math.Min(lo, b)
		hi = math.Max(hi, b)
		ok = true
	}
	if !ok {
		return 0, false
	}
	b := float64(s.Biases[node])
	return simtime.Duration(math.Max(0, math.Max(lo-b, b-hi))), true
}

// Envelope is the Equation 3 accuracy state of one processor over one good
// stretch, O(1) per sample: over all sample pairs τ1 < τ2 of the stretch, the
// worst violation of the lower rate line equals the maximum drawdown of
// g(τ) = C(τ) − τ/(1+ρ̃), and of the upper line the maximum runup of
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

// Recorder takes a Sample on a fixed period and — on the serial engine — at
// every clock adjustment, and accumulates the paper's metrics. Periodic
// sampling alone can miss a deviation spike that appears and is corrected
// between two samples; adjustment instants are exactly where biases change
// discontinuously, so sampling there closes the gap.
//
// A sample's Biases and Good are views cut from slabs the recorder owns, each
// capped at the processor count, so appending to one never writes into the
// next. A slab that runs out is followed by a new one; what a sample already
// taken points to is never copied or moved, so every Sample a caller holds
// stays valid until the recorder is released. The per-processor adjustment
// logs are cut from one slab the same way. With Reserve sized to the run, a
// measurement instant allocates nothing. Reserve takes the slabs from what
// released recorders gave back (Release).
type Recorder struct {
	Measurer
	sim *des.Sim

	// store is the storage Reserve took, handed back whole by Release; nil
	// on a recorder that never reserved.
	store    *slabs
	released bool

	samples []Sample
	// biasFree and goodFree are what is left of the current slabs: each
	// sample takes its views off their front.
	biasFree []simtime.Duration
	goodFree []bool
	// adjusts holds one log per processor of every adjustment with its
	// instant, so BuildReport can classify it (good vs recovering, warm-up
	// vs steady state). A processor's log is appended to only by the event
	// queue that runs the processor, so the logs need no lock on either
	// engine.
	adjusts [][]adjustRecord
	// sharded turns off sampling at adjustments (EnableSharded).
	sharded  bool
	onSample func(Sample)
}

// minSlabSamples is the smallest slab an unreserved recorder adds: with no
// reservation, slabs grow with the samples taken so far, so their number stays
// logarithmic in the run's length.
const minSlabSamples = 16

type adjustRecord struct {
	at    simtime.Time
	delta simtime.Duration
}

// slabs is one run's measurement storage: the sample log, the bias and good
// slabs the samples' views are cut from, and the slab every processor's
// adjustment log is cut from.
type slabs struct {
	samples []Sample
	biases  []simtime.Duration
	good    []bool
	adjusts []adjustRecord
}

// slabPool holds the storage of released recorders. Nothing stale can be
// read from a reused set: a sample writes all n of its biases and good flags
// before anything reads them, and adjustment logs are cut at length 0.
var slabPool = sync.Pool{New: func() any { return new(slabs) }}

// fit returns s at length n, reusing its array when it is large enough.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewRecorder builds a recorder over the given clocks. theta is the
// adversary period Θ used to decide the good set; sched is the corruption
// schedule of the run (empty Schedule for fault-free runs).
func NewRecorder(sim *des.Sim, clocks []*clock.Local, sched adversary.Schedule, theta simtime.Duration) *Recorder {
	if theta <= 0 {
		panic(fmt.Sprintf("metrics: non-positive Θ %v", theta))
	}
	return &Recorder{
		Measurer: Measurer{Clocks: FromClocks(clocks), Schedule: sched, Theta: theta},
		sim:      sim,
		adjusts:  make([][]adjustRecord, len(clocks)),
	}
}

// Reserve sizes the recorder for a run that takes up to samples measurement
// instants and logs up to adjusts clock adjustments per processor: within
// those counts, neither allocates. The storage comes from what released
// recorders gave back; only a slab too small for the run is allocated. It is
// for a fresh recorder: called after the first sample or adjustment it
// panics, since it would drop what was recorded. A run that outgrows either
// count stays correct and only pays the allocation.
func (r *Recorder) Reserve(samples, adjusts int) {
	if len(r.samples) > 0 {
		panic("metrics: Reserve after the recorder took a sample")
	}
	for _, log := range r.adjusts {
		if len(log) > 0 {
			panic("metrics: Reserve after the recorder logged an adjustment")
		}
	}
	n := len(r.Clocks)
	if r.store == nil {
		r.store = slabPool.Get().(*slabs)
	}
	st := r.store
	st.samples = fit(st.samples, samples)
	st.biases = fit(st.biases, samples*n)
	st.good = fit(st.good, samples*n)
	st.adjusts = fit(st.adjusts, n*adjusts)
	r.samples = st.samples[:0]
	r.biasFree, r.goodFree = st.biases, st.good
	for i := range r.adjusts {
		r.adjusts[i] = st.adjusts[i*adjusts : i*adjusts : (i+1)*adjusts]
	}
}

// Release gives the recorder's reserved storage back for a later run's
// Reserve. Every Sample the recorder took is a view into that storage, so
// neither the recorder nor any Sample it handed out may be read afterwards:
// Samples, DeviationSeries and BuildReport panic. A released recorder that
// is still sampled writes into storage of its own.
func (r *Recorder) Release() {
	r.released = true
	r.samples, r.biasFree, r.goodFree = nil, nil, nil
	for i := range r.adjusts {
		r.adjusts[i] = nil
	}
	if r.store != nil {
		slabPool.Put(r.store)
		r.store = nil
	}
}

// live panics on a released recorder, whose storage another run may be
// measuring into.
func (r *Recorder) live() {
	if r.released {
		panic("metrics: recorder read after Release")
	}
}

// Adjust logs processor id's adjustment by delta at instant at and, on the
// serial engine, samples that instant: it is protocol.Harness.OnAdjust's work.
func (r *Recorder) Adjust(id int, at simtime.Time, delta simtime.Duration) {
	r.adjusts[id] = append(r.adjusts[id], adjustRecord{at: at, delta: delta})
	if !r.sharded {
		r.TakeSample(at)
	}
}

// EnableSharded switches off sampling at adjustments, before hooks run: on
// a sharded run a consistent snapshot of every processor exists only at
// barriers, so deviation sampling happens only on the periodic ticker, which
// the sharded scenario runner schedules on the global barrier queue where
// every shard is quiesced.
func (r *Recorder) EnableSharded() { r.sharded = true }

// OnSample registers a hook invoked with every recorded sample (periodic and
// adjustment-triggered alike); the scenario runner bridges it into the
// observability stream. At most one hook; nil unregisters.
func (r *Recorder) OnSample(fn func(Sample)) { r.onSample = fn }

// Start arms periodic sampling with the given period.
func (r *Recorder) Start(period simtime.Duration) {
	des.NewTicker(r.sim, period, r.TakeSample)
}

// TakeSample records one measurement immediately, into views of the
// recorder's slabs.
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

// Samples returns the recorded samples, valid until Release.
func (r *Recorder) Samples() []Sample {
	r.live()
	return r.samples
}

// Report condenses a run.
type Report struct {
	// MaxDeviation is the largest good-set deviation over all samples at or
	// after the measurement start (Theorem 5(i) measures this against Δ).
	MaxDeviation simtime.Duration
	// MeanDeviation averages the good-set deviation over the same samples.
	MeanDeviation simtime.Duration
	// MaxDiscontinuity is the largest single clock adjustment by a
	// processor that was non-faulty throughout the preceding Θ — Theorem
	// 5(ii)'s ψ, which by Definition 3(ii) does not cover recovering
	// processors.
	MaxDiscontinuity simtime.Duration
	// MaxAdjustment is the largest single adjustment by anyone, recovery
	// jumps included.
	MaxAdjustment simtime.Duration
	// WorstRate is the largest |rate − 1| of any processor's logical clock
	// measured over maximal good stretches (Theorem 5(ii)'s ρ̃).
	WorstRate float64
	// AccuracyDrawdown and AccuracyRunup measure Definition 3(ii)/Equation 3
	// directly: over every good stretch and every sample pair τ1 < τ2
	// within it,
	//
	//	C(τ2) − C(τ1) ≥ (τ2−τ1)/(1+ρ̃) − ψ  and  ≤ (τ2−τ1)·(1+ρ̃) + ψ.
	//
	// Drawdown is the worst shortfall of C against the lower rate line
	// (max over pairs of the left-hand violation) and Runup the worst
	// excess over the upper line; Theorem 5(ii) claims both stay ≤ ψ.
	// They are computed with the ρ̃ supplied in ReportOptions.
	AccuracyDrawdown simtime.Duration
	AccuracyRunup    simtime.Duration
	// Recoveries lists the measured recovery of every release event.
	Recoveries []Recovery
}

// Recovery describes how one released processor rejoined.
type Recovery struct {
	Node       int
	ReleasedAt simtime.Time
	// Rejoined is the first sample instant after release at which the
	// processor's bias was within Margin of the good processors' range.
	Rejoined simtime.Time
	// Ok is false when the processor never rejoined before the run ended.
	Ok bool
	// InitialDistance is the bias distance from the good range at release.
	InitialDistance simtime.Duration
}

// Time returns the measured recovery duration.
func (rv Recovery) Time() simtime.Duration { return rv.Rejoined.Sub(rv.ReleasedAt) }

// ReportOptions tunes report computation.
type ReportOptions struct {
	// SkipBefore drops samples earlier than this from deviation statistics
	// (warm-up transients).
	SkipBefore simtime.Time
	// RecoveryMargin is the bias distance from the good range under which a
	// released processor counts as rejoined.
	RecoveryMargin simtime.Duration
	// MinRateWindow is the minimal good-stretch length over which clock
	// rates are measured; shorter stretches are noise-dominated.
	MinRateWindow simtime.Duration
	// LogicalDriftBound is the ρ̃ used for the Equation 3 accuracy
	// measurement (AccuracyDrawdown/Runup); zero disables it.
	LogicalDriftBound float64
}

// BuildReport computes the run report. The report holds no view into the
// recorder's storage, so it outlives Release.
func (r *Recorder) BuildReport(opts ReportOptions) Report {
	r.live()
	if opts.RecoveryMargin <= 0 {
		opts.RecoveryMargin = 100 * simtime.Millisecond
	}
	if opts.MinRateWindow <= 0 {
		opts.MinRateWindow = 10 * simtime.Second
	}
	rep := Report{}
	rep.MaxDeviation, rep.MeanDeviation = r.deviationStats(opts.SkipBefore)
	for id, log := range r.adjusts {
		for _, a := range log {
			d := a.delta.Abs()
			if d > rep.MaxAdjustment {
				rep.MaxAdjustment = d
			}
			if a.at < opts.SkipBefore {
				continue // warm-up convergence; the guarantees assume a synchronized start
			}
			lookback := simtime.Interval{Lo: a.at.Add(-r.Theta), Hi: a.at}
			if !r.Schedule.ControlledWithin(id, lookback) && d > rep.MaxDiscontinuity {
				rep.MaxDiscontinuity = d
			}
		}
	}
	rep.WorstRate = r.worstRate(opts)
	if opts.LogicalDriftBound > 0 {
		rep.AccuracyDrawdown, rep.AccuracyRunup = r.accuracyEnvelope(opts.LogicalDriftBound, opts.SkipBefore)
	}
	rep.Recoveries = r.recoveries(opts)
	return rep
}

// deviationStats is the largest and the mean good-set deviation over the
// samples at or after skipBefore (0, 0 when there are none). The mean sums the
// deviations in ascending order, which is what keeps it bit for bit the value
// reports have always carried; the sorted copy is borrowed from sortPool.
func (r *Recorder) deviationStats(skipBefore simtime.Time) (maxDev, meanDev simtime.Duration) {
	n := 0
	for _, s := range r.samples {
		if s.At >= skipBefore {
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	buf := sortPool.Get().(*[]float64)
	devs := (*buf)[:0]
	for _, s := range r.samples {
		if s.At >= skipBefore {
			devs = append(devs, float64(s.Deviation))
		}
	}
	sort.Float64s(devs)
	var sum float64
	for _, d := range devs {
		sum += d
	}
	maxDev, meanDev = simtime.Duration(devs[n-1]), simtime.Duration(sum/float64(n))
	*buf = devs
	sortPool.Put(buf)
	return maxDev, meanDev
}

// sortPool lends deviationStats its sorted copy, so that building a report
// allocates none in steady state without any recorder owning a buffer.
var sortPool = sync.Pool{New: func() any { return new([]float64) }}

// accuracyEnvelope measures the Equation 3 drawdown/runup per processor
// over its maximal good stretches in O(samples), one Envelope each.
func (r *Recorder) accuracyEnvelope(rhoTilde float64, skipBefore simtime.Time) (drawdown, runup simtime.Duration) {
	for id := range r.Clocks {
		var env Envelope
		for _, s := range r.samples {
			if !s.Good[id] || s.At < skipBefore {
				env.Reset()
				continue
			}
			d, u := env.Advance(s.At, s.Biases[id], rhoTilde)
			if d > drawdown {
				drawdown = d
			}
			if u > runup {
				runup = u
			}
		}
	}
	return drawdown, runup
}

// worstRate measures logical clock rates over maximal stretches of samples
// where a processor is good, using endpoint differences.
func (r *Recorder) worstRate(opts ReportOptions) float64 {
	worst := 0.0
	for id := range r.Clocks {
		runStart := -1
		flush := func(endIdx int) {
			if runStart < 0 {
				return
			}
			first, last := r.samples[runStart], r.samples[endIdx]
			span := last.At.Sub(first.At)
			if span >= opts.MinRateWindow {
				dC := float64(last.Biases[id]-first.Biases[id]) + float64(span)
				rate := dC / float64(span)
				if dev := math.Abs(rate - 1); dev > worst {
					worst = dev
				}
			}
			runStart = -1
		}
		for i, s := range r.samples {
			if s.Good[id] {
				if runStart < 0 {
					runStart = i
				}
			} else {
				flush(i - 1)
			}
		}
		flush(len(r.samples) - 1)
	}
	return worst
}

// recoveries inspects each release event in the schedule.
func (r *Recorder) recoveries(opts ReportOptions) []Recovery {
	var out []Recovery
	for _, c := range r.Schedule.Corruptions {
		rv := Recovery{Node: c.Node, ReleasedAt: c.To}
		seenRelease := false
		for _, s := range r.samples {
			if s.At < c.To {
				continue
			}
			dist, ok := s.DistanceToGood(c.Node)
			if !ok {
				continue
			}
			if !seenRelease {
				rv.InitialDistance = dist
				seenRelease = true
			}
			if dist <= opts.RecoveryMargin {
				rv.Rejoined = s.At
				rv.Ok = true
				break
			}
		}
		out = append(out, rv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ReleasedAt < out[j].ReleasedAt })
	return out
}

// DeviationSeries extracts (time, deviation) pairs for plotting.
func (r *Recorder) DeviationSeries() (ts []float64, devs []float64) {
	r.live()
	for _, s := range r.samples {
		ts = append(ts, float64(s.At))
		devs = append(devs, float64(s.Deviation))
	}
	return ts, devs
}
