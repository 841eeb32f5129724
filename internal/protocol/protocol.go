// Package protocol provides the node harness shared by the paper's Sync
// protocol and the baseline comparators: wire message types, alarms driven
// by the (unresettable) hardware clock, the ping/echo clock-estimation
// engine of §3.1, and the hooks through which a mobile adversary takes over
// and releases a processor.
package protocol

import (
	"fmt"

	"clocksync/internal/clock"
	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// TimeReq asks a peer for its current clock reading. Nonce ties the reply to
// the request, which rules out replays confusing an estimation round (the
// paper notes its link model "does not completely rule out replay" but that
// this does not hurt the application; nonces make the simulation strict).
type TimeReq struct {
	Nonce uint64
	// Span is the requester's estimation-span id, propagated so the
	// responder's "reply" span shares it and cross-node traces join — the
	// simulated twin of the live sync wire's trace context. Zero when the
	// requester is untraced.
	Span obs.SpanID
}

// WireSize implements network.Sizer. Trace context is not counted: like the
// live wire (where untraced packets omit it entirely), it must not perturb
// simulated transmission timing, or enabling tracing would change every
// deterministic schedule and invalidate the committed goldens.
func (TimeReq) WireSize() int { return 20 }

// TimeResp carries the responder's clock value at the moment of reply.
type TimeResp struct {
	Nonce uint64
	Clock simtime.Time
}

// WireSize implements network.Sizer.
func (TimeResp) WireSize() int { return 28 }

// Estimate is the (d, a) pair of Definition 4: "since the procedure was
// invoked there was a point at which C_q − C_p was in [D−A, D+A]".
type Estimate struct {
	Peer int
	D    simtime.Duration // estimated offset C_q − C_p
	A    simtime.Duration // error bound; simtime.Infinity on timeout
	OK   bool             // false when the peer did not answer in time
	Span obs.SpanID       // estimation span, 0 when tracing is disabled
}

// Over returns the overestimate d̄ = d + a (Figure 1, line 6).
func (e Estimate) Over() simtime.Duration { return e.D + e.A }

// Under returns the underestimate d̲ = d − a (Figure 1, line 7).
func (e Estimate) Under() simtime.Duration { return e.D - e.A }

// FailedEstimate is the sentinel for a timed-out peer: d = 0, a = ∞ (§3.1),
// so the overestimate is +∞ and the underestimate −∞ — values that the
// (f+1)-st order statistics of the convergence function trim away.
func FailedEstimate(peer int) Estimate {
	return Estimate{Peer: peer, D: 0, A: simtime.Infinity, OK: false}
}

// Behavior scripts a corrupted processor. While a processor is faulty its
// correct protocol logic is suspended and the adversary answers (or ignores)
// incoming time requests on its behalf, with full knowledge of the victim's
// state and, via whatever the concrete behavior closes over, of all network
// traffic — the full power §2.2 grants.
type Behavior interface {
	// RespondTime decides the clock value the corrupted processor reports to
	// peer. Returning reply=false suppresses the response entirely.
	RespondTime(h *Harness, peer int, now simtime.Time) (reading simtime.Time, reply bool)
	// OnCorrupt runs when the adversary takes the processor over; it may
	// rewrite any state, including the adjustment variable.
	OnCorrupt(h *Harness, now simtime.Time)
	// OnRelease runs when the adversary leaves the processor.
	OnRelease(h *Harness, now simtime.Time)
}

// Harness owns the per-processor machinery. Protocols embed a *Harness and
// drive it; the scenario runner corrupts and releases processors through it.
type Harness struct {
	id  int
	sim *des.Sim
	net *network.Network
	clk *clock.Local

	faulty   bool
	behavior Behavior

	nonce   uint64
	pending map[uint64]pendingPing
	// freeReq/freeResp recycle wire payloads. Pings dominated the simulator's
	// allocation profile (~94% of objects at n=256 was TimeReq/TimeResp
	// boxing), so payloads travel as pointers and the receiver returns them
	// here after dispatch. Capped: under peer sampling a node can receive
	// more requests than it sends, and an uncapped list would grow without
	// bound.
	freeReq  []*TimeReq
	freeResp []*TimeResp
	poolCap  int
	// est is the estimation round in flight (round.go); the fields after it
	// are what driving it through the simulator takes: each slot's nonce, the
	// round's one timeout, and the caller's callback. All are reused across
	// rounds, so a steady-state round costs one timeout closure, not one
	// allocation per peer. roundGen guards the timeout against firing into a
	// later round.
	est       Round
	nonces    []uint64
	timeout   des.Event
	roundDone func([]Estimate)
	roundGen  uint64

	// Custom handles payloads other than TimeReq/TimeResp (round-based
	// baselines exchange their own message types). Nil for Sync.
	Custom func(network.Message)

	// OnAdjust observes every adjustment a correct processor applies; the
	// metrics recorder uses it to measure discontinuity (Definition 3(ii)).
	OnAdjust func(now simtime.Time, delta simtime.Duration)

	// OnRelease lets the protocol rearm its loop when the adversary leaves
	// (the paper: "one must make sure that this alarm is recovered after a
	// break-in").
	OnRelease func(now simtime.Time)

	// Obs receives the processor's observability stream (round events,
	// estimation timeouts); nil disables instrumentation. The scenario
	// runner shares one observer across all processors of a run.
	Obs *obs.Observer

	// SpanParent is the span every estimation started from here parents to.
	// The protocol driving the harness (internal/core) sets it around
	// EstimateAll; safe because only one round is in flight per processor.
	SpanParent obs.SpanID
}

type pendingPing struct {
	peer    int
	idx     int          // slot in the round's results, -1 for standalone pings
	sentAt  simtime.Time // local clock S at send
	sentSim simtime.Time // simulation time at send (span timebase)
	span    obs.SpanID   // estimation span, 0 when tracing is disabled
	parent  obs.SpanID
	done    func(Estimate) // standalone pings only; rounds route via idx
}

// NewHarness builds the harness for processor id and registers its network
// handler.
func NewHarness(id int, sim *des.Sim, net *network.Network, clk *clock.Local) *Harness {
	h := &Harness{
		id:      id,
		sim:     sim,
		net:     net,
		clk:     clk,
		pending: make(map[uint64]pendingPing),
		poolCap: payloadPoolCap,
	}
	// A full-mesh round puts ~2·(n−1) payloads in flight per node at once
	// (every peer pinged, every ping answered), so the free lists must hold a
	// round's working set or nearly every pop misses. That is also their
	// natural ceiling: in-flight payloads are O(n) per node regardless.
	if n := net.Topology().N(); 2*n > h.poolCap {
		h.poolCap = 2 * n
	}
	net.Register(id, h.receive)
	return h
}

// ID returns the processor's identity.
func (h *Harness) ID() int { return h.id }

// Sim returns the simulator the harness runs on.
func (h *Harness) Sim() *des.Sim { return h.sim }

// Net returns the message layer.
func (h *Harness) Net() *network.Network { return h.net }

// Clock returns the processor's logical clock.
func (h *Harness) Clock() *clock.Local { return h.clk }

// LocalNow returns C_p at the current simulation instant.
func (h *Harness) LocalNow() simtime.Time { return h.clk.Now(h.sim.Now()) }

// Faulty reports whether the processor is currently controlled by the
// adversary.
func (h *Harness) Faulty() bool { return h.faulty }

// Corrupt hands the processor to the adversary.
func (h *Harness) Corrupt(b Behavior) {
	if h.faulty {
		panic(fmt.Sprintf("protocol: processor %d corrupted twice", h.id))
	}
	h.faulty = true
	h.behavior = b
	// The adversary owns all protocol state from here on; in-flight
	// estimates are meaningless once the processor recovers.
	h.abortEstimation()
	b.OnCorrupt(h, h.sim.Now())
}

// Release returns the processor to correct operation. In-flight protocol
// state left by the adversary is discarded and the protocol's OnRelease hook
// rearms its loop.
func (h *Harness) Release() {
	if !h.faulty {
		panic(fmt.Sprintf("protocol: processor %d released while not faulty", h.id))
	}
	h.behavior.OnRelease(h, h.sim.Now())
	h.faulty = false
	h.behavior = nil
	h.abortEstimation()
	if h.OnRelease != nil {
		h.OnRelease(h.sim.Now())
	}
}

// Adjust applies a correction to the logical clock on behalf of the correct
// protocol and reports it to the metrics hook.
func (h *Harness) Adjust(delta simtime.Duration) {
	h.clk.Adjust(delta)
	if h.OnAdjust != nil {
		h.OnAdjust(h.sim.Now(), delta)
	}
}

// ScheduleLocal schedules fn to run when the processor's *hardware* clock
// has advanced by d. Alarms are hardware-driven so that an adversary who
// smashes the logical clock cannot starve the sync loop; this matches §3.3
// ("Every SyncInt time units of local time", with the alarm surviving
// break-ins).
func (h *Harness) ScheduleLocal(d simtime.Duration, fn func()) des.Event {
	if d < 0 {
		panic(fmt.Sprintf("protocol: negative local delay %v", d))
	}
	now := h.sim.Now()
	hw := h.clk.Hardware()
	target := hw.Read(now).Add(d)
	return h.sim.At(hw.RealAt(target, now), fn)
}

// payloadPoolCap is the minimum per-harness payload free-list bound; NewHarness
// raises it to twice the cluster size so a full round's working set pools.
const payloadPoolCap = 64

// newTimeReq pops a pooled request or allocates one.
func (h *Harness) newTimeReq() *TimeReq {
	if last := len(h.freeReq) - 1; last >= 0 {
		req := h.freeReq[last]
		h.freeReq = h.freeReq[:last]
		return req
	}
	return &TimeReq{}
}

// newTimeResp pops a pooled response or allocates one.
func (h *Harness) newTimeResp() *TimeResp {
	if last := len(h.freeResp) - 1; last >= 0 {
		resp := h.freeResp[last]
		h.freeResp = h.freeResp[:last]
		return resp
	}
	return &TimeResp{}
}

// receive dispatches a delivered message. Pointer payloads are recycled into
// the receiver's pools after their handler returns — handlers read the
// fields and never retain the pointer.
func (h *Harness) receive(msg network.Message) {
	switch p := msg.Payload.(type) {
	case *TimeReq:
		h.answerTimeReq(msg.From, *p)
		if len(h.freeReq) < h.poolCap {
			h.freeReq = append(h.freeReq, p)
		}
	case *TimeResp:
		h.handleTimeResp(msg.From, *p)
		if len(h.freeResp) < h.poolCap {
			h.freeResp = append(h.freeResp, p)
		}
	case TimeReq:
		h.answerTimeReq(msg.From, p)
	case TimeResp:
		h.handleTimeResp(msg.From, p)
	default:
		if h.faulty {
			return // adversary ignores protocol-specific traffic by default
		}
		if h.Custom != nil {
			h.Custom(msg)
		}
	}
}

// answerTimeReq replies with the current clock value — a processor always
// reports its *current* clock; there are no per-round clocks to keep (§3.3).
func (h *Harness) answerTimeReq(from int, req TimeReq) {
	now := h.sim.Now()
	if h.faulty {
		// A corrupted processor emits no telemetry: the adversary does not
		// advertise itself in the trace plane.
		reading, reply := h.behavior.RespondTime(h, from, now)
		if reply {
			resp := h.newTimeResp()
			resp.Nonce, resp.Clock = req.Nonce, reading
			h.net.Send(h.id, from, resp)
		}
		return
	}
	c := h.clk.Now(now)
	resp := h.newTimeResp()
	resp.Nonce, resp.Clock = req.Nonce, c
	h.net.Send(h.id, from, resp)
	if req.Span != 0 && h.Obs.SpansEnabled() {
		// The responder's half of the exchange, under the requester's
		// propagated id; node_time is exactly the C the requester folds into
		// its (d, a) estimate.
		h.Obs.EmitSpan(obs.Span{
			ID: req.Span, Name: obs.SpanReply, Node: h.id,
			Start: float64(now), End: float64(now),
			Fields: obs.F("origin", float64(from)).F("node_time", float64(c)),
		})
	}
}

func (h *Harness) handleTimeResp(from int, resp TimeResp) {
	p, ok := h.pending[resp.Nonce]
	if !ok || p.peer != from {
		return // stale, aborted, or mismatched reply
	}
	delete(h.pending, resp.Nonce)
	if h.faulty {
		return
	}
	r := h.LocalNow()
	var est Estimate
	if p.idx < 0 {
		est = measure(from, p.sentAt, r, resp.Clock, p.span)
	} else if est, ok = h.est.Reply(p.idx, p.sentAt, r, resp.Clock, p.span); !ok {
		return // response outlived its round
	}
	rtt := float64(r.Sub(p.sentAt))
	if rec := h.Obs.Recorder(); rec != nil {
		rec.RTT.Observe(rtt)
		rec.EstError.Observe(float64(est.A))
	}
	if p.span != 0 {
		h.Obs.EmitSpan(obs.Span{
			ID: p.span, Parent: p.parent, Name: obs.SpanEstimate, Node: h.id,
			Start: float64(p.sentSim), End: float64(h.sim.Now()),
			Fields: obs.F("peer", float64(from)).
				F("d", float64(est.D)).
				F("a", float64(est.A)).
				F("rtt", rtt).
				F("ok", 1),
		})
	}
	if p.idx < 0 {
		p.done(est)
	} else if !h.est.Open() {
		h.timeout.Cancel()
		h.roundDone(h.est.Estimates())
	}
}

// sendPing issues one clock request and registers it as pending. Exactly-once
// completion is guaranteed by the pending map alone: whichever of response or
// timeout claims the nonce first deletes it, and abortEstimation discards the
// whole map.
func (h *Harness) sendPing(peer, idx int, done func(Estimate)) uint64 {
	h.nonce++
	nonce := h.nonce
	var span obs.SpanID
	if h.Obs.SpansEnabled() {
		span = h.Obs.NextSpanID()
	}
	if span != 0 && idx >= 0 {
		h.est.Sent(idx, span)
	}
	h.pending[nonce] = pendingPing{
		peer: peer, idx: idx, sentAt: h.LocalNow(), sentSim: h.sim.Now(),
		span: span, parent: h.SpanParent, done: done,
	}
	req := h.newTimeReq()
	req.Nonce, req.Span = nonce, span
	h.net.Send(h.id, peer, req)
	return nonce
}

// observeTimeout emits the observations of one expired ping. The caller has
// already removed the nonce.
func (h *Harness) observeTimeout(p pendingPing) {
	peer := p.peer
	if rec := h.Obs.Recorder(); rec != nil {
		rec.EstimationTimeouts.Inc()
		h.Obs.Emit(obs.Event{
			At: float64(h.sim.Now()), Kind: obs.KindTimeout, Node: h.id,
			Fields: map[string]float64{"peer": float64(peer)},
		})
	}
	if p.span != 0 {
		h.Obs.EmitSpan(obs.Span{
			ID: p.span, Parent: p.parent, Name: obs.SpanEstimate, Node: h.id,
			Start: float64(p.sentSim), End: float64(h.sim.Now()),
			Fields: obs.F("peer", float64(peer)).F("ok", 0).F("timeout", 1),
		})
	}
}

// Ping sends a single clock request to peer and invokes done exactly once:
// with the measured estimate, or with FailedEstimate after timeout on the
// local clock. It is the primitive beneath estimation rounds and the
// min-RTT-of-k refinement.
func (h *Harness) Ping(peer int, timeout simtime.Duration, done func(Estimate)) {
	nonce := h.sendPing(peer, -1, done)
	h.ScheduleLocal(timeout, func() {
		if p, still := h.pending[nonce]; still {
			delete(h.pending, nonce)
			h.observeTimeout(p)
			fe := FailedEstimate(peer)
			fe.Span = p.span
			p.done(fe)
		}
	})
}

// EstimateAll pings every listed peer in parallel and calls done with one
// estimate per peer (results[i] answers peers[i]) once all have answered or
// timed out. All estimations run concurrently, as the analysis assumes
// (§3.2), so a round occupies at most MaxWait of local time. Only one round
// may be in flight per processor; the results slice is reused by the next
// round, so done must copy anything it keeps.
//
// The whole round shares a single timeout event: every ping is sent at the
// same instant, so one alarm at maxWait expires all unanswered peers at
// exactly the per-ping deadlines, in send order — without allocating a
// timer closure per peer.
func (h *Harness) EstimateAll(peers []int, maxWait simtime.Duration, done func([]Estimate)) {
	if h.est.Open() {
		panic(fmt.Sprintf("protocol: processor %d started overlapping estimation rounds", h.id))
	}
	h.est.Begin(peers)
	if !h.est.Open() {
		done(h.est.Estimates())
		return
	}
	h.roundDone = done
	h.roundGen++
	gen := h.roundGen
	if cap(h.nonces) < len(peers) {
		h.nonces = make([]uint64, 0, len(peers))
	}
	h.nonces = h.nonces[:0]
	for i, peer := range peers {
		h.nonces = append(h.nonces, h.sendPing(peer, i, nil))
	}
	h.timeout = h.ScheduleLocal(maxWait, func() { h.roundTimeout(gen) })
}

// roundTimeout reports every still-unanswered peer of the round as timed
// out, in send order, and completes the round. The generation guard makes a
// stale alarm (from a round that was aborted after its timeout was
// scheduled) a no-op.
func (h *Harness) roundTimeout(gen uint64) {
	if !h.est.Open() || h.roundGen != gen {
		return
	}
	for _, nonce := range h.nonces {
		if p, still := h.pending[nonce]; still {
			delete(h.pending, nonce)
			h.observeTimeout(p)
		}
	}
	h.est.Expire()
	h.roundDone(h.est.Estimates())
}

// abortEstimation invalidates any in-flight round and pings; their callbacks
// will never fire.
func (h *Harness) abortEstimation() {
	if h.est.Open() {
		h.timeout.Cancel()
		h.est.Abort()
	}
	clear(h.pending)
}

// PingBest performs k sequential pings to peer and returns (via done) the
// estimate with the smallest error bound a — i.e. the smallest round-trip
// time. This is the standard refinement §3.1 mentions ("repeatedly ping the
// other processor and choose the estimation given from the ping with the
// least round trip time", as in NTP), trading timeliness for accuracy.
func (h *Harness) PingBest(peer, k int, timeout simtime.Duration, done func(Estimate)) {
	if k < 1 {
		panic("protocol: PingBest needs k >= 1")
	}
	best := FailedEstimate(peer)
	var step func(remaining int)
	step = func(remaining int) {
		h.Ping(peer, timeout, func(e Estimate) {
			if e.OK && (!best.OK || e.A < best.A) {
				best = e
			}
			if remaining == 1 {
				done(best)
				return
			}
			step(remaining - 1)
		})
	}
	step(k)
}
