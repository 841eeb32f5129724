package protocol

import (
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// pendingPing is one standalone clock request awaiting its answer or its
// timeout.
type pendingPing struct {
	live    bool
	peer    int
	sentAt  simtime.Time // local clock S at send
	sentSim simtime.Time // simulation time at send (span timebase)
	span    obs.SpanID   // estimation span, 0 when tracing is disabled
	parent  obs.SpanID
	done    func(Estimate)
}

// pendingWindow holds a harness's standalone pings in flight — Ping,
// PingBest and the estimate cache — indexed by nonce. A harness numbers its
// requests consecutively, so the live ones lie in a window [base, next) of
// the nonce sequence and nonce n sits at ring[n mod len]: a send is a store,
// a reply a load and a compare — no hashing, and no state beyond the window.
//
// Estimation rounds draw their nonces from the same sequence (take) but keep
// their pings in the round itself, so a round's nonces have no entries here.
// The window spans them only while a standalone ping sent before the round is
// still live; under Sync alone it stays empty and the ring is never built.
//
// The front follows the oldest ping still live, so the window spans what was
// sent since then: a few sweeps' worth when a background cache keeps pinging
// a peer that never answers. Every ping dies by its timeout at the latest,
// which is what bounds the span. The ring is sized by the first reserve and
// doubles only if the window outgrows it.
//
// Slots outside the window, slots of round nonces and slots of nonces already
// claimed are zero.
type pendingWindow struct {
	ring []pendingPing // power-of-two length; nil until the first reserve
	base uint64        // every nonce below it is dead
	next uint64        // the nonce the next request takes
}

func (w *pendingWindow) slot(nonce uint64) *pendingPing {
	return &w.ring[nonce&uint64(len(w.ring)-1)]
}

// reserve makes room for k more nonces without moving the window again.
func (w *pendingWindow) reserve(k int) {
	need := int(w.next-w.base) + k
	if need <= len(w.ring) {
		return
	}
	size := max(len(w.ring), 1)
	for size < need {
		size *= 2
	}
	old := *w
	w.ring = make([]pendingPing, size)
	for n := w.base; n < w.next; n++ {
		*w.slot(n) = *old.slot(n)
	}
}

// add registers a ping under the next nonce and returns that nonce.
func (w *pendingWindow) add(p pendingPing) uint64 {
	w.reserve(1)
	nonce := w.next
	w.next++
	p.live = true
	*w.slot(nonce) = p
	return nonce
}

// take hands an estimation round k consecutive nonces, which get no entries,
// and returns the first. An empty window moves past them; a window with a
// ping still live spans them, so the ring must cover them too — a lookup of
// one of them must land on its own zero slot, never on a live ping's.
func (w *pendingWindow) take(k int) uint64 {
	first := w.next
	if w.base == w.next {
		w.base += uint64(k)
	} else {
		w.reserve(k)
	}
	w.next += uint64(k)
	return first
}

// lookup returns nonce's entry while that ping is in flight, nil otherwise:
// never sent, a round's, already answered or expired, or aborted.
func (w *pendingWindow) lookup(nonce uint64) *pendingPing {
	if nonce < w.base || nonce >= w.next {
		return nil
	}
	if e := w.slot(nonce); e.live {
		return e
	}
	return nil
}

// claim consumes a live entry. Whichever of answer and timeout reaches a ping
// first claims it, which is what makes its completion exactly-once.
func (w *pendingWindow) claim(e *pendingPing) pendingPing {
	p := *e
	*e = pendingPing{}
	for w.base < w.next && !w.slot(w.base).live {
		w.base++
	}
	return p
}

// clear drops every ping in flight; their nonces stay dead for good.
func (w *pendingWindow) clear() {
	for n := w.base; n < w.next; n++ {
		*w.slot(n) = pendingPing{}
	}
	w.base = w.next
}
