package metrics

import (
	"cmp"
	"math"
	"slices"

	"clocksync/internal/clock"
	"clocksync/internal/simtime"
)

// sweep is BuildReport's working state, its slices cut from the recorder's
// slabs: a cursor on each clock's trajectory, and its bias at the last
// rebuild. The good clocks' range is kept through candidates, not all n
// clocks: a rebuild at t0 takes the range [lo, hi] and the rates [bLo, bHi]
// of every good clock and keeps those within δ, a tenth of a second of that
// rate spread, of either end. Every other good clock stays inside the window
// (lo + δ + bLo·(t−t0), hi − δ + bHi·(t−t0)) until it is written, and a
// written clock left inside it at a rate within [bLo, bHi] does too; so
// while the candidates reach past both ends of the window, their range is
// the good clocks' range.
type sweep struct {
	*Recorder
	curs             []clock.Cursor
	bias             []simtime.Duration
	good, spare      []bool
	ticked           bool // some clock reads through a tick
	cands            []int32
	lo, hi, bLo, bHi float64 // the window at t0
	t0               simtime.Time
}

// at is clock i's bias at t.
func (sw *sweep) at(i int, t simtime.Time) simtime.Duration {
	return sw.curs[i].Bias(sw.clocks[i], t)
}

// trace walks clock i alone through [0, end]: Equation 3's envelope at both
// limits of its writes and at the ends of its good stretches from skip on,
// its rate between a stretch's ends, and the size of each of its steps.
func (sw *sweep) trace(i int, skip, end simtime.Time, opts ReportOptions, rep *Report) {
	var env Envelope
	advance := func(t simtime.Time, b simtime.Duration) {
		if opts.LogicalDriftBound > 0 {
			d, u := env.Advance(t, b, opts.LogicalDriftBound)
			rep.AccuracyDrawdown, rep.AccuracyRunup = max(rep.AccuracyDrawdown, d), max(rep.AccuracyRunup, u)
		}
	}
	c := sw.clocks[i]
	cur, good, from := c.Cursor(), sw.goodAt(i, 0), simtime.Time(0)
	fromBias := cur.Bias(c, 0)
	endStretch := func(t simtime.Time, b simtime.Duration) {
		if span := t.Sub(from); span >= opts.MinRateWindow {
			rep.WorstRate = math.Max(rep.WorstRate, math.Abs(float64(b-fromBias+span)/float64(span)-1))
		}
		env.Reset()
	}
	for t := simtime.Time(0); ; {
		b, gr := cur.Bias(c, t), sw.goodAt(i, t)
		if good && t > skip {
			advance(t, b)
		}
		if good && !gr {
			endStretch(t, b)
		}
		made := cur.Made()
		cur.Advance(c, t)
		for _, st := range c.Steps()[made:cur.Made()] {
			// The adversary's writes are not adjustments, and Theorem
			// 5(ii)'s ψ covers the good processors after the warm-up.
			if d := st.Delta.Abs(); !sw.Schedule.ActiveAt(i, t) {
				rep.MaxAdjustment = max(rep.MaxAdjustment, d)
				if gr && t >= skip {
					rep.MaxDiscontinuity = max(rep.MaxDiscontinuity, d)
				}
			}
		}
		if b = cur.Bias(c, t); gr && !good {
			from, fromBias = t, b
		}
		if gr && t >= skip {
			advance(t, b)
		}
		if t >= end {
			if gr {
				endStretch(t, b)
			}
			return
		}
		good, t = gr, min(cur.Next(), sw.nextBound(t, skip, i), end)
	}
}

func (sw *sweep) window(t simtime.Time) (lo, hi float64) {
	dt := float64(t - sw.t0)
	return sw.lo + sw.bLo*dt, sw.hi + sw.bHi*dt
}

// span is the good clocks' range at t: from the candidates, or from a
// rebuild, which evaluates every clock into bias and picks the candidates
// anew, when full or when they no longer reach past the window. A ticked
// clock is not affine between its writes, so a run with one always rebuilds.
func (sw *sweep) span(t simtime.Time, full bool) (lo, hi float64, rebuilt bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, i := range sw.cands {
		v := float64(sw.at(int(i), t))
		lo, hi = min(lo, v), max(hi, v)
	}
	if wLo, wHi := sw.window(t); !full && !sw.ticked && lo <= wLo && hi >= wHi {
		return lo, hi, false
	}
	lo, hi, sw.bLo, sw.bHi, sw.t0 = math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1), t
	for i := range sw.curs {
		if sw.bias[i] = sw.at(i, t); sw.good[i] {
			lo, hi = min(lo, float64(sw.bias[i])), max(hi, float64(sw.bias[i]))
			sw.bLo, sw.bHi = min(sw.bLo, sw.curs[i].Rate()), max(sw.bHi, sw.curs[i].Rate())
		}
	}
	d := (sw.bHi - sw.bLo) * 0.1
	sw.lo, sw.hi, sw.cands = lo+d, hi-d, sw.cands[:0]
	for i, g := range sw.good {
		if v := float64(sw.bias[i]); g && (v <= sw.lo || v >= sw.hi) {
			sw.cands = append(sw.cands, int32(i))
		}
	}
	return lo, hi, true
}

// admit makes good clock w, just written at t, a candidate unless it stays
// inside the window at a rate within it.
func (sw *sweep) admit(t simtime.Time, w int) {
	v, b := float64(sw.at(w, t)), sw.curs[w].Rate()
	if lo, hi := sw.window(t); v <= lo || v >= hi || b < sw.bLo || b > sw.bHi {
		sw.cands = append(sw.cands, int32(w))
	}
}

// down restores the heap order of clocks below j, the earliest next write
// on top.
func down(order []int32, curs []clock.Cursor, j int) {
	for c := 2*j + 1; c < len(order); j, c = c, 2*c+1 {
		if c+1 < len(order) && curs[order[c+1]].Next() < curs[order[c]].Next() {
			c++
		}
		if curs[order[j]].Next() <= curs[order[c]].Next() {
			return
		}
		order[j], order[c] = order[c], order[j]
	}
}

// BuildReport computes the report of the run over [0, the simulator's
// present] from its clocks' trajectories; the report outlives Release.
// Between writes a logical clock is affine, so the good-set spread, a max
// minus a min of affine functions, is convex between the instants where a
// clock is written or the good set changes: its supremum is a left or right
// limit at one of them. One sweep visits those, the periodic samples', the
// At marks', releases, SkipBefore and the end in time order and takes the
// good range at both limits; each clock's Equation 3 envelope, rate and
// steps come from a walk over its own writes (trace). visit, when non-nil,
// is handed the limits from SkipBefore on, as check.Checker.Round takes
// them: where a clock is written or the good set may change, the left limit
// (node −1) if something changes, then the right limit once per step made
// there (its node and delta; −1 and 0 when none is). At marks fire in the
// first call only.
func (r *Recorder) BuildReport(opts ReportOptions, visit func(s Sample, node int, delta simtime.Duration)) Report {
	r.live()
	if opts.RecoveryMargin <= 0 {
		opts.RecoveryMargin = 100 * simtime.Millisecond
	}
	if opts.MinRateWindow <= 0 {
		opts.MinRateWindow = 10 * simtime.Second
	}
	if r.store == nil {
		r.store = new(slabs)
	}
	st := r.store
	st.fitSweep(len(r.clocks))
	sw, order := sweep{Recorder: r, curs: st.curs, bias: st.bias, good: st.now, spare: st.spare, cands: st.cand}, st.order
	for i, c := range r.clocks {
		sw.curs[i], sw.good[i], order[i] = c.Cursor(), r.goodAt(i, 0), int32(i)
		sw.ticked = sw.ticked || c.Hardware().Tick() > 0
	}
	for j := len(order)/2 - 1; j >= 0; j-- {
		down(order, sw.curs, j)
	}
	var rep Report
	for _, c := range r.Schedule.Corruptions {
		rep.Recoveries = append(rep.Recoveries, Recovery{Node: c.Node, ReleasedAt: c.To})
	}
	slices.SortStableFunc(rep.Recoveries, func(a, b Recovery) int { return cmp.Compare(a.ReleasedAt, b.ReleasedAt) })
	slices.SortStableFunc(r.marks, func(a, b mark) int { return cmp.Compare(a.at, b.at) })
	end, skip := r.sim.Now(), max(opts.SkipBefore, 0)
	for i := range sw.curs {
		sw.trace(i, skip, end, opts, &rep)
	}

	// Recoveries[:released] are those released by t, sorted by ReleasedAt;
	// all before first have rejoined, and waiting counts those that have not.
	var sum, samples float64
	bound, mi, pi := r.nextBound(0, skip, -1), 0, 0
	first, released, waiting := 0, 0, 0
	sw.span(0, true)
	for t := simtime.Time(0); ; {
		// gr is the right limit's good set, which may differ from the left
		// one where a corruption starts or leaves its Θ-shadow.
		all, gr := t == bound || t == skip || t >= end, sw.good
		if all {
			gr = sw.spare
			for i := range gr {
				gr[i] = r.goodAt(i, t)
			}
		}
		wrote := len(order) > 0 && sw.curs[order[0]].Next() <= t
		read := visit != nil && t >= skip && (wrote || all)
		if t > skip && (wrote || all && !slices.Equal(sw.good, gr)) {
			lo, hi, _ := sw.span(t, read)
			left := Sample{At: t, Biases: sw.bias, Good: sw.good, Deviation: simtime.Duration(max(hi-lo, 0))}
			if rep.MaxDeviation = max(rep.MaxDeviation, left.Deviation); read {
				visit(left, -1, 0)
			}
		}

		// The writes of t, then the right limit; before SkipBefore only a
		// mark or a recovery reads it.
		for ; len(order) > 0 && sw.curs[order[0]].Next() <= t; down(order, sw.curs, 0) {
			w := int(order[0])
			if sw.curs[w].Advance(r.clocks[w], t); gr[w] {
				sw.admit(t, w)
			}
		}
		if all {
			sw.good, sw.spare, bound = gr, sw.good, r.nextBound(t, skip, -1)
		}
		marked := mi < len(r.marks) && r.marks[mi].at == t
		for ; released < len(rep.Recoveries) && rep.Recoveries[released].ReleasedAt <= t; released++ {
			waiting++
		}
		measure := all || marked || t >= skip || waiting > 0
		var lo, hi float64
		var rebuilt bool
		if measure {
			lo, hi, rebuilt = sw.span(t, read || all || marked)
		}
		right := Sample{At: t, Biases: sw.bias, Good: sw.good, Deviation: simtime.Duration(max(hi-lo, 0))}
		if t >= skip {
			rep.MaxDeviation = max(rep.MaxDeviation, right.Deviation)
		}
		stepped := false
		for w := 0; read && w < len(sw.curs); w++ {
			steps := r.clocks[w].Steps()
			for j := sw.curs[w].Made() - 1; j >= 0 && steps[j].At == t; j-- {
				visit(right, w, steps[j].Delta)
				stepped = true
			}
		}
		if read && !stepped {
			visit(right, -1, 0)
		}
		for ; mi < len(r.marks) && r.marks[mi].at <= t; mi++ {
			if r.marks[mi].at == t {
				r.marks[mi].fn(right)
			}
		}
		for first < released && rep.Recoveries[first].Ok {
			first++
		}
		for i := first; waiting > 0 && i < released; i++ {
			rv := &rep.Recoveries[i]
			if rv.Ok {
				continue
			}
			// The range is the other good clocks' too unless the node is
			// good and at one of its ends.
			v := float64(sw.at(rv.Node, t))
			dist, ok := simtime.Duration(max(0, lo-v, v-hi)), lo <= hi
			if sw.good[rv.Node] && (v <= lo || v >= hi) {
				if !rebuilt {
					lo, hi, rebuilt = sw.span(t, true)
				}
				dist, ok = right.DistanceToGood(rv.Node)
			}
			if t == rv.ReleasedAt {
				rv.InitialDistance = dist
			}
			if ok && dist <= opts.RecoveryMargin {
				rv.Rejoined, rv.Ok = t, true
				waiting--
			}
		}
		for ; pi < len(r.samples) && r.samples[pi].At <= t; pi++ {
			if r.samples[pi].At >= opts.SkipBefore {
				sum, samples = sum+float64(r.samples[pi].Deviation), samples+1
			}
		}
		if t >= end {
			break
		}
		next := min(bound, end)
		if len(order) > 0 {
			next = min(next, sw.curs[order[0]].Next())
		}
		if pi < len(r.samples) {
			next = min(next, r.samples[pi].At)
		}
		if mi < len(r.marks) {
			next = min(next, r.marks[mi].at)
		}
		t = next
	}
	st.cand, r.marks = sw.cands, nil
	rep.MeanDeviation = simtime.Duration(sum / max(samples, 1))
	return rep
}

// goodAt reports whether node is good at t (Definition 3(i)): outside the
// Θ-shadow [From, To+Θ) of each of its corruptions, whose end is computed as
// nextBound computes it, so that the sweep lands on it exactly.
func (r *Recorder) goodAt(node int, t simtime.Time) bool {
	for _, c := range r.Schedule.Corruptions {
		if c.Node == node && c.From <= t && t < c.To.Add(r.Theta) {
			return false
		}
	}
	return true
}

// nextBound is the first corruption start, release or shadow end of node
// (of any node if it is −1), or SkipBefore, after t.
func (r *Recorder) nextBound(t, skip simtime.Time, node int) simtime.Time {
	next := simtime.Time(math.Inf(1))
	if skip > t {
		next = skip
	}
	for _, c := range r.Schedule.Corruptions {
		for _, b := range [...]simtime.Time{c.From, c.To, c.To.Add(r.Theta)} {
			if b > t && (node < 0 || c.Node == node) {
				next = min(next, b)
			}
		}
	}
	return next
}
