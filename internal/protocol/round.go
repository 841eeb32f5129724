package protocol

import (
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// measure is §3.1's two-party exchange as arithmetic: a request sent at local
// time S, answered with the peer's clock C and received at local time R,
// yields d = C − (R+S)/2 = (C − R) + (R−S)/2 and a = (R−S)/2. The three
// instants may be in any timebase as long as they share it.
func measure(peer int, s, r, c simtime.Time, span obs.SpanID) Estimate {
	a := r.Sub(s) / 2
	return Estimate{Peer: peer, D: c.Sub(r) + a, A: a, OK: true, Span: span}
}

// Round is the estimation half of a Sync round (§3.1) as a pure state
// machine: it owns the slot bookkeeping and the (S, R, C) → (d, a) arithmetic
// and nothing else — no clock, socket, timer, goroutine or lock. A driver
// (Harness.EstimateAll in the simulator, livenet's sync loop on sockets)
// feeds it Begin, Sent, Reply and Expire or Abort, and keeps for itself
// whatever maps a wire nonce to a slot and whatever decides when to expire.
//
// The zero value is ready to use; buffers are reused across rounds.
type Round struct {
	ests []Estimate // slot i answers peers[i]; FailedEstimate until answered
	left int        // slots still unanswered
	open bool
}

// Begin opens a round over peers: slot i answers peers[i]. Every slot starts
// as the §3.1 failure sentinel (d = 0, a = ∞), so a slot nobody answers
// already holds what expiry owes it. A round without targets is complete at
// once. Beginning over a round still open abandons that round.
func (r *Round) Begin(peers []int) {
	if cap(r.ests) < len(peers) {
		r.ests = make([]Estimate, 0, len(peers))
	}
	r.ests = r.ests[:0]
	for _, p := range peers {
		r.ests = append(r.ests, FailedEstimate(p))
	}
	r.left = len(peers)
	r.open = r.left > 0
}

// Sent records that a request to slot went out under estimation span span,
// so a slot that times out parents its reading to the last attempt made.
func (r *Round) Sent(slot int, span obs.SpanID) {
	if r.open && !r.ests[slot].OK {
		r.ests[slot].Span = span
	}
}

// Reply feeds one answer: the request to slot was sent at local time S, the
// answer carrying the peer's clock C arrived at local time R, and span is the
// estimation span of the attempt that was answered. The first answer to a
// slot wins — retransmissions and duplicated packets collapse — and answers
// to a closed round or to a slot the round does not have are refused. The
// answer that fills the last open slot completes the round.
func (r *Round) Reply(slot int, s, recv, c simtime.Time, span obs.SpanID) (Estimate, bool) {
	if !r.open || slot < 0 || slot >= len(r.ests) || r.ests[slot].OK {
		return Estimate{}, false
	}
	e := measure(r.ests[slot].Peer, s, recv, c, span)
	r.ests[slot] = e
	r.left--
	r.open = r.left > 0
	return e, true
}

// Expire closes the round: slots still unanswered keep the failure sentinel.
func (r *Round) Expire() { r.open = false }

// Abort closes the round and discards what it gathered — the processor was
// taken over or is shutting down, and nothing may be decided from it.
func (r *Round) Abort() {
	r.open = false
	r.ests = r.ests[:0]
}

// Open reports whether the round still accepts replies.
func (r *Round) Open() bool { return r.open }

// Answered reports whether slot has been answered.
func (r *Round) Answered(slot int) bool { return r.ests[slot].OK }

// Estimates returns one estimate per slot, in Begin's order. The slice is
// reused by the next round; callers keeping anything must copy it.
func (r *Round) Estimates() []Estimate { return r.ests }
