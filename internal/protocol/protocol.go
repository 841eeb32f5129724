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

	// pend holds the standalone pings in flight and numbers every request
	// (pending.go).
	pend pendingWindow
	// reqs and resps recycle wire payloads: pings travel as pointers, and the
	// receiver puts them back after dispatch. The lists belong to the queue
	// that runs the processor, one pair per shard (network.PayloadList), so
	// they outlive any one processor and any one run on a reused simulator,
	// and are shared by all processors that run on the shard.
	reqs  *des.FreeList[TimeReq]
	resps *des.FreeList[TimeResp]
	// est is the estimation round in flight (round.go) and the only record of
	// its pings; the fields after it are what driving it through the
	// simulator takes. The round's slots live in estBuf, borrowed from the
	// lane's list ests when the round begins and given back when it ends, so
	// a processor holds no estimate storage between rounds and a lane holds
	// as many buffers as it ever had rounds open at once. A round's pings go
	// out back to back at one instant, so slot i has nonce roundFirst+i, and
	// every slot shares the send instant in local and in simulation time and
	// the span the pings parent to. Then the round's one timeout, its callback
	// bound once by Init, and the caller's callback. A steady-state
	// round allocates nothing.
	est          Round
	ests         *des.FreeList[[]Estimate]
	estBuf       *[]Estimate
	roundFirst   uint64
	roundSentAt  simtime.Time
	roundSentSim simtime.Time
	roundParent  obs.SpanID
	timeout      des.Event
	roundAlarm   func()
	roundDone    func([]Estimate)

	// recv is the receive method value Init registers with the network, bound
	// once like roundAlarm.
	recv network.Handler

	// Custom handles payloads other than TimeReq/TimeResp (round-based
	// baselines exchange their own message types). Nil for Sync.
	Custom func(network.Message)

	// OnAdjust observes every adjustment a correct processor applies; the
	// scenario runner uses it to record the round events of protocols that
	// do not record their own. The clock logs every write itself.
	OnAdjust func(now simtime.Time, delta simtime.Duration)

	// OnRelease lets the protocol rearm its loop when the adversary leaves
	// (the paper: "one must make sure that this alarm is recovered after a
	// break-in").
	OnRelease func(now simtime.Time)

	// Obs receives the processor's observability stream (round events,
	// estimation timeouts, its break-ins and releases as they happen); nil
	// disables instrumentation. The scenario runner shares one observer
	// across all processors of a run.
	Obs *obs.Observer

	// SpanParent is the span every estimation started from here parents to.
	// The protocol driving the harness (internal/core) sets it around
	// EstimateAll; safe because only one round is in flight per processor.
	SpanParent obs.SpanID
}

// NewHarness builds the harness for processor id and registers its network
// handler.
func NewHarness(id int, sim *des.Sim, net *network.Network, clk *clock.Local) *Harness {
	h := new(Harness)
	h.Init(id, sim, net, clk)
	return h
}

// Init makes h the harness for processor id, as NewHarness builds it, and
// registers its network handler. Every field starts from zero — the hooks, the
// observer, the adversary's hold and any round or ping the harness had in
// flight — except the callbacks bound to h's address, which are bound on
// first use and kept: a harness that lives on its queue (the scenario runner
// keeps one per processor across Reset) is re-initialised for each run
// without allocating. It must not be re-initialised while its simulator
// runs.
func (h *Harness) Init(id int, sim *des.Sim, net *network.Network, clk *clock.Local) {
	alarm, recv := h.roundAlarm, h.recv
	*h = Harness{
		id:         id,
		sim:        sim,
		net:        net,
		clk:        clk,
		pend:       pendingWindow{base: 1, next: 1}, // nonces start at 1
		reqs:       network.PayloadList[TimeReq](net, id),
		resps:      network.PayloadList[TimeResp](net, id),
		ests:       network.PayloadList[[]Estimate](net, id),
		roundAlarm: alarm,
		recv:       recv,
	}
	if h.roundAlarm == nil {
		h.roundAlarm = h.expireRound
	}
	if h.recv == nil {
		h.recv = h.receive
	}
	net.Register(id, h.recv)
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
	h.Obs.Emit(obs.Event{At: float64(h.sim.Now()), Kind: obs.KindCorrupt, Node: h.id})
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
	h.Obs.Emit(obs.Event{At: float64(h.sim.Now()), Kind: obs.KindRelease, Node: h.id})
	if h.OnRelease != nil {
		h.OnRelease(h.sim.Now())
	}
}

// Adjust applies a correction to the logical clock on behalf of the correct
// protocol and reports it to the OnAdjust hook.
func (h *Harness) Adjust(delta simtime.Duration) {
	now := h.sim.Now()
	h.clk.Adjust(now, delta)
	if h.OnAdjust != nil {
		h.OnAdjust(now, delta)
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

// receive dispatches a delivered message. Pointer payloads are recycled into
// the receiver's shard's lists after their handler returns — handlers read
// the fields and never retain the pointer.
func (h *Harness) receive(msg network.Message) {
	switch p := msg.Payload.(type) {
	case *TimeReq:
		h.answerTimeReq(msg.From, *p)
		h.reqs.Put(p)
	case *TimeResp:
		h.handleTimeResp(msg.From, *p)
		h.resps.Put(p)
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
			resp := h.resps.Get()
			resp.Nonce, resp.Clock = req.Nonce, reading
			h.net.Send(h.id, from, resp)
		}
		return
	}
	c := h.clk.Now(now)
	resp := h.resps.Get()
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

// handleTimeResp accepts an answer only for a request still in flight and
// only from the peer it was sent to; anything else — a duplicate, a nonce
// from a finished or aborted round, the right nonce under the wrong identity
// — is dropped without consuming anything. A nonce in the open round's range
// goes straight to its slot; any other can only be a standalone ping's.
func (h *Harness) handleTimeResp(from int, resp TimeResp) {
	if slot := resp.Nonce - h.roundFirst; h.est.Open() && slot < uint64(len(h.est.ests)) {
		h.roundReply(from, int(slot), resp.Clock)
		return
	}
	e := h.pend.lookup(resp.Nonce)
	if e == nil || e.peer != from {
		return
	}
	p := h.pend.claim(e)
	if h.faulty {
		return
	}
	r := h.LocalNow()
	est := measure(from, p.sentAt, r, resp.Clock, p.span)
	h.observeReply(est, r.Sub(p.sentAt), p.sentSim, p.parent)
	p.done(est)
}

// roundReply feeds the open round an answer to slot, refused unless the slot's
// peer sent it and the slot is unanswered. A faulty processor measures
// nothing: a round open while it is faulty was begun under the adversary
// (Corrupt and Release abort any other) and ends by its alarm.
func (h *Harness) roundReply(from, slot int, c simtime.Time) {
	if h.faulty || h.est.ests[slot].Peer != from {
		return
	}
	r := h.LocalNow()
	est, ok := h.est.Reply(slot, h.roundSentAt, r, c, h.est.ests[slot].Span)
	if !ok {
		return // the slot was answered already
	}
	h.observeReply(est, r.Sub(h.roundSentAt), h.roundSentSim, h.roundParent)
	if !h.est.Open() {
		h.timeout.Cancel()
		h.endRound()
	}
}

// observeReply emits the observations of one answered ping: its round-trip
// time and error bound, and its estimation span, which began at sentSim.
func (h *Harness) observeReply(est Estimate, rtt simtime.Duration, sentSim simtime.Time, parent obs.SpanID) {
	if rec := h.Obs.Recorder(); rec != nil {
		rec.RTT.Observe(float64(rtt))
		rec.EstError.Observe(float64(est.A))
	}
	if est.Span != 0 {
		h.Obs.EmitSpan(obs.Span{
			ID: est.Span, Parent: parent, Name: obs.SpanEstimate, Node: h.id,
			Start: float64(sentSim), End: float64(h.sim.Now()),
			Fields: obs.F("peer", float64(est.Peer)).
				F("d", float64(est.D)).
				F("a", float64(est.A)).
				F("rtt", float64(rtt)).
				F("ok", 1),
		})
	}
}

// nextSpan opens the estimation span of one request, 0 when tracing is off.
func (h *Harness) nextSpan() obs.SpanID {
	if h.Obs.SpansEnabled() {
		return h.Obs.NextSpanID()
	}
	return 0
}

// request sends peer a clock request under nonce, carrying its span.
func (h *Harness) request(peer int, nonce uint64, span obs.SpanID) {
	req := h.reqs.Get()
	req.Nonce, req.Span = nonce, span
	h.net.Send(h.id, peer, req)
}

// sendPing issues one standalone clock request and registers it in the
// window. Exactly-once completion is guaranteed by the window alone:
// whichever of response or timeout claims the nonce first kills it, and
// abortEstimation kills every nonce in flight.
func (h *Harness) sendPing(peer int, done func(Estimate)) uint64 {
	span := h.nextSpan()
	nonce := h.pend.add(pendingPing{
		peer: peer, sentAt: h.LocalNow(), sentSim: h.sim.Now(),
		span: span, parent: h.SpanParent, done: done,
	})
	h.request(peer, nonce, span)
	return nonce
}

// observeTimeout emits the observations of one expired ping to peer, sent at
// sentSim under span. The caller has already settled the ping.
func (h *Harness) observeTimeout(peer int, span, parent obs.SpanID, sentSim simtime.Time) {
	if rec := h.Obs.Recorder(); rec != nil {
		rec.EstimationTimeouts.Inc()
		h.Obs.Emit(obs.Event{
			At: float64(h.sim.Now()), Kind: obs.KindTimeout, Node: h.id,
			Fields: map[string]float64{"peer": float64(peer)},
		})
	}
	if span != 0 {
		h.Obs.EmitSpan(obs.Span{
			ID: span, Parent: parent, Name: obs.SpanEstimate, Node: h.id,
			Start: float64(sentSim), End: float64(h.sim.Now()),
			Fields: obs.F("peer", float64(peer)).F("ok", 0).F("timeout", 1),
		})
	}
}

// Ping sends a single clock request to peer and invokes done exactly once:
// with the measured estimate, or with FailedEstimate after timeout on the
// local clock. It is the primitive beneath the min-RTT-of-k refinement and
// the estimate cache.
func (h *Harness) Ping(peer int, timeout simtime.Duration, done func(Estimate)) {
	nonce := h.sendPing(peer, done)
	h.ScheduleLocal(timeout, func() {
		if e := h.pend.lookup(nonce); e != nil {
			p := h.pend.claim(e)
			h.observeTimeout(p.peer, p.span, p.parent, p.sentSim)
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
// may be in flight per processor. The results slice is lent by the lane for
// the length of the round and goes back once done returns, to serve whichever
// round on the lane begins next, so done must copy anything it keeps. done
// may begin the next round itself; that round borrows a buffer of its own.
//
// The round is the only record of its pings: they take consecutive nonces
// and no window entries, and since every ping is sent at the same instant
// the harness keeps that instant once. For the same reason the whole round
// shares a single timeout event: one alarm at maxWait expires all unanswered
// peers at exactly the per-ping deadlines, in send order — and its callback
// is bound once per harness, so a round allocates no timer closure at all.
func (h *Harness) EstimateAll(peers []int, maxWait simtime.Duration, done func([]Estimate)) {
	if h.est.Open() {
		panic(fmt.Sprintf("protocol: processor %d started overlapping estimation rounds", h.id))
	}
	buf := h.ests.Get()
	h.est.Begin(peers, *buf)
	*buf = h.est.Estimates() // keep what Begin grew
	h.estBuf, h.roundDone = buf, done
	if !h.est.Open() {
		h.endRound()
		return
	}
	h.roundFirst = h.pend.take(len(peers))
	h.roundSentAt, h.roundSentSim, h.roundParent = h.LocalNow(), h.sim.Now(), h.SpanParent
	for i, peer := range peers {
		span := h.nextSpan()
		h.est.Sent(i, span)
		h.request(peer, h.roundFirst+uint64(i), span)
	}
	h.timeout = h.ScheduleLocal(maxWait, h.roundAlarm)
}

// expireRound is the round's alarm: it reports every still-unanswered peer as
// timed out, in send order, and completes the round. The alarm carries no
// round identity, so it must never outlive its round: every other path that
// ends a round cancels it first — the reply that fills the last slot
// (roundReply) and abortEstimation (break-in, release) — and the alarm
// itself is the only remaining way a round ends. A stale alarm would
// otherwise expire whatever round is open when it fires.
func (h *Harness) expireRound() {
	for _, e := range h.est.Estimates() {
		if !e.OK {
			h.observeTimeout(e.Peer, e.Span, h.roundParent, h.roundSentSim)
		}
	}
	h.est.Expire()
	h.endRound()
}

// endRound hands the closed round's estimates to its callback, then gives
// their buffer back to the lane. The buffer goes back only after done has
// returned, so done reads its estimates intact whatever it does; and a round
// done begins in the meantime has borrowed another buffer, which stays its
// own. Once the buffer is back no closed round refers to it: a late or
// duplicate reply finds no open round to route to, and is dropped.
func (h *Harness) endRound() {
	buf := h.estBuf
	h.roundDone(h.est.Estimates())
	if !h.est.Open() {
		h.est.Abort()
		h.estBuf = nil
	}
	h.ests.Put(buf)
}

// abortEstimation invalidates any in-flight round and pings; their callbacks
// will never fire, and the round's buffer goes back to the lane.
func (h *Harness) abortEstimation() {
	if h.est.Open() {
		h.timeout.Cancel()
		h.est.Abort()
		h.ests.Put(h.estBuf)
		h.estBuf = nil
	}
	h.pend.clear()
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
