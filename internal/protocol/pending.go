package protocol

import (
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// pendingPing is one clock request awaiting its answer or its timeout.
type pendingPing struct {
	live    bool
	peer    int
	idx     int          // slot in the round's results, -1 for standalone pings
	sentAt  simtime.Time // local clock S at send
	sentSim simtime.Time // simulation time at send (span timebase)
	span    obs.SpanID   // estimation span, 0 when tracing is disabled
	parent  obs.SpanID
	done    func(Estimate) // standalone pings only; rounds route via idx
}

// pendingWindow holds a harness's pings in flight, indexed by nonce. A
// harness numbers its pings consecutively, so the live ones lie in a window
// [base, next) of the nonce sequence and nonce n sits at ring[n mod len]: a
// send is a store, a reply a load and a compare — no hashing, and no state
// beyond the window. Rounds, standalone pings, PingBest and the estimate
// cache all go through it.
//
// The front follows the oldest ping still live, so the window spans what was
// sent since then: one round's k pings under Sync, a few sweeps' worth when a
// background cache keeps pinging a peer that never answers. Every ping dies
// by its timeout at the latest, which is what bounds the span. The ring is
// sized by the first reserve and doubles only if the window outgrows it.
//
// Slots outside the window, and slots of nonces already claimed, are zero.
type pendingWindow struct {
	ring []pendingPing // power-of-two length; nil until the first reserve
	base uint64        // every nonce below it is dead
	next uint64        // the nonce the next ping takes
}

func (w *pendingWindow) slot(nonce uint64) *pendingPing {
	return &w.ring[nonce&uint64(len(w.ring)-1)]
}

// reserve makes room for k more pings without moving the window again.
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

// lookup returns nonce's entry while that ping is in flight, nil otherwise:
// never sent, already answered or expired, or aborted with its round.
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
