package core

import (
	"math"

	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// Outcome is what one Sync round decided. The scalar fields are a plain
// value a driver may keep; Trimmed reads the machine's buffers and is valid
// only until that machine's next round.
type Outcome struct {
	Delta  simtime.Duration // the adjustment to apply; 0 when !OK
	OK     bool             // false: no safe adjustment exists and the round is skipped
	Jumped bool             // the WayOff "ignore own clock" branch was taken (Figure 1, line 11)
	Failed int              // readings that timed out
	M, MM  float64          // trimmed extremes m and M (Figure 1, lines 6–7); 0 below 2f+1 readings
	// Unc is max(|d|+a) over the answered readings. After the adjustment the
	// clock is within it of every good peer heard (each true offset lies in
	// [d−a, d+a]), so the cluster time Theorem 5 keeps inside the good-set
	// envelope is within it too — the uncertainty a served reading owes.
	Unc simtime.Duration

	overs, unders []float64 // d+a and d−a per reading, in reading order
}

// Trimmed reports the convergence function's verdict on reading i: low when
// its overestimate is among the f smallest, high when its underestimate is
// among the f largest. A reading trimmed on neither side was accepted.
func (o *Outcome) Trimmed(i int) (low, high bool) {
	return o.overs[i] < o.M, o.unders[i] > o.MM
}

// decide is Figure 1, lines 6–12, over one reading per processor (self
// included): the trimmed extremes, the adjustment, which branch produced it,
// and what the round observed along the way. Fewer than 2f+1 readings cannot
// be trimmed by f on both sides and decide nothing.
func (sc *convergeScratch) decide(f int, wayOff simtime.Duration, ests []protocol.Estimate) Outcome {
	var out Outcome
	for _, e := range ests {
		if !e.OK {
			out.Failed++
		} else if u := e.D.Abs() + e.A; u > out.Unc {
			out.Unc = u
		}
	}
	if len(ests) >= 2*f+1 {
		out.M, out.MM = sc.extremes(f, ests)
		out.Delta, out.Jumped, out.OK = convergeFromExtremes(out.M, out.MM, wayOff)
		out.overs, out.unders = sc.overs, sc.unders
	}
	return out
}

// Round is one processor's Sync round (Figure 1) as a pure state machine. The
// embedded estimation half takes Begin, Sent, Reply, Expire and Abort; Close
// turns what it gathered into an Outcome, and Record turns the Outcome into
// the round's observation records. There is no clock, socket, timer,
// goroutine or lock inside: the driver supplies every instant, decides when
// a round expires, and applies the adjustment.
//
// In the simulator the estimation half runs underneath Harness.EstimateAll
// (the baselines share it there), so core.Node hands the finished estimate
// vector to Decide; livenet drives the whole machine.
type Round struct {
	protocol.Round
	id      int
	f       int
	wayOff  simtime.Duration
	all     []protocol.Estimate // the estimates plus the self-estimate
	scratch convergeScratch
	out     Outcome
}

// NewRound builds the machine of processor id with trimming depth f and
// own-clock rejection threshold wayOff (in seconds).
func NewRound(id, f int, wayOff simtime.Duration) *Round {
	return &Round{id: id, f: f, wayOff: wayOff}
}

// Decide applies the convergence function to one estimate per peer. Figure 1
// iterates over all of {1..n} including p itself; the self-estimate is exact
// and free, and is added here.
func (r *Round) Decide(ests []protocol.Estimate) Outcome {
	if cap(r.all) <= len(ests) {
		r.all = make([]protocol.Estimate, 0, len(ests)+1)
	}
	r.all = append(append(r.all[:0], ests...), protocol.Estimate{Peer: r.id, OK: true})
	r.out = r.scratch.decide(r.f, r.wayOff, r.all)
	return r.out
}

// Close expires whatever the estimation half still waits for and decides the
// round from what it gathered.
func (r *Round) Close() Outcome {
	r.Expire()
	return r.Decide(r.Estimates())
}

// Record emits the observation records of the round just decided: the
// recorder's counters, the round or skip event, and — when the driver opened
// a round span — one zero-duration reading span per estimate carrying the
// convergence function's verdict, an adjustment span, and the round span
// itself. Reading spans parent to the estimation span that produced their
// value, so a bad adjustment traces back through its reading to the exact
// message exchange (or timeout) that fed it. start and now are the round's
// first and last instants in the driver's timebase; rec and o may each be
// nil.
func (r *Round) Record(o *obs.Observer, rec *obs.Recorder, span obs.SpanID, start, now float64) {
	out := &r.out
	if !out.OK {
		if rec != nil {
			rec.RoundsSkipped.Inc()
		}
		if o != nil {
			o.Emit(obs.Event{At: now, Kind: obs.KindSkip, Node: r.id})
		}
		if span != 0 {
			o.EmitSpan(obs.Span{
				ID: span, Name: obs.SpanRound, Node: r.id, Start: start, End: now,
				Fields: obs.F("skip", 1),
			})
		}
		return
	}
	delta, wayoff := float64(out.Delta), flag(out.Jumped)
	if rec != nil {
		rec.SyncRounds.Inc()
		rec.LastAdjust.Set(delta)
		rec.AdjustMag.Observe(math.Abs(delta))
		// Adjustments are applied instantaneously (Definition 1 permits only
		// additive corrections), so the amortization gauge pins at 1.
		rec.AmortizationProgress.Set(1)
		if out.Jumped {
			rec.WayOffJumps.Inc()
		}
	}
	if o != nil {
		o.Emit(obs.Event{
			At: now, Kind: obs.KindRound, Node: r.id,
			Fields: map[string]float64{"delta": delta, "failed": float64(out.Failed), "wayoff": wayoff},
		})
	}
	if span == 0 {
		return
	}
	for i, e := range r.all {
		low, high := out.Trimmed(i)
		lowTrim, highTrim := flag(low), flag(high)
		fields := obs.F("peer", float64(e.Peer)).
			F("accepted", 1-math.Max(lowTrim, highTrim)).
			F("lowtrim", lowTrim).
			F("hightrim", highTrim)
		// Failed estimates carry infinite over/under; JSON cannot encode
		// those, so only finite readings are recorded.
		if over := out.overs[i]; !math.IsInf(over, 0) {
			fields = fields.F("over", over)
		}
		if under := out.unders[i]; !math.IsInf(under, 0) {
			fields = fields.F("under", under)
		}
		parent := e.Span
		if parent == 0 {
			parent = span // the self-estimate has no estimation span
		}
		o.EmitSpan(obs.Span{
			ID: o.NextSpanID(), Parent: parent, Name: obs.SpanReading,
			Node: r.id, Start: now, End: now, Fields: fields,
		})
	}
	o.EmitSpan(obs.Span{
		ID: o.NextSpanID(), Parent: span, Name: obs.SpanAdjust,
		Node: r.id, Start: now, End: now,
		Fields: obs.F("delta", delta).F("wayoff", wayoff),
	})
	o.EmitSpan(obs.Span{
		ID: span, Name: obs.SpanRound, Node: r.id, Start: start, End: now,
		Fields: obs.F("delta", delta).F("wayoff", wayoff),
	})
}

// flag is a verdict as a span field value.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
