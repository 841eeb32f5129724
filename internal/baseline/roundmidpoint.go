package baseline

import (
	"math"

	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// RoundReq asks a peer for its clock in a specific round. Round-based
// protocols keep (at most) the current and previous round's clocks, so the
// responder answers only when the requested round is adjacent to its own —
// the behaviour §3.3 describes for protocols like Welch–Lynch '88 and
// Fetzer–Cristian '94.
type RoundReq struct {
	Nonce uint64
	Round int64
}

// WireSize implements network.Sizer.
func (RoundReq) WireSize() int { return 28 }

// RoundResp answers a RoundReq.
type RoundResp struct {
	Nonce uint64
	Clock simtime.Time
}

// WireSize implements network.Sizer.
func (RoundResp) WireSize() int { return 28 }

// RoundMidpointConfig parameterizes the round-based synchronizer.
type RoundMidpointConfig struct {
	F        int
	RoundLen simtime.Duration // logical time between round boundaries
	MaxWait  simtime.Duration
}

// RoundMidpoint is a round-based fault-tolerant midpoint synchronizer. At
// every logical-time multiple of RoundLen it polls all peers for their
// round-r clocks and sets its clock to the midpoint of the (f+1)-trimmed
// range. Because peers only answer requests for adjacent rounds, a
// processor whose clock was smashed to a different round epoch gets only
// timeouts and can never rejoin — the round state the paper's roundless
// design deliberately avoids (§3.3).
type RoundMidpoint struct {
	h     *protocol.Harness
	cfg   RoundMidpointConfig
	peers []int

	round   int64
	nonce   uint64
	pending map[uint64]roundPending
	// collection state for the in-flight round poll
	collecting bool
	results    []protocol.Estimate
	expect     int

	Syncs    int // rounds that adjusted the clock
	NoQuorum int // rounds with too few answers to trim safely
}

type roundPending struct {
	peer   int
	sentAt simtime.Time
}

// NewRoundMidpoint builds a node.
func NewRoundMidpoint(h *protocol.Harness, cfg RoundMidpointConfig, peers []int) *RoundMidpoint {
	if cfg.RoundLen < 2*cfg.MaxWait || cfg.MaxWait <= 0 {
		panic("baseline: RoundMidpoint needs RoundLen ≥ 2·MaxWait > 0")
	}
	r := &RoundMidpoint{
		h:       h,
		cfg:     cfg,
		peers:   append([]int(nil), peers...),
		pending: make(map[uint64]roundPending),
	}
	h.Custom = r.receive
	return r
}

// Start implements scenario.Starter.
func (r *RoundMidpoint) Start() {
	r.round = r.currentRound()
	r.scheduleBoundary()
}

// currentRound derives the round from the logical clock — exactly the state
// coupling that makes round-based protocols fragile under clock smashing.
func (r *RoundMidpoint) currentRound() int64 {
	return int64(math.Floor(float64(r.h.LocalNow()) / float64(r.cfg.RoundLen)))
}

// scheduleBoundary arms the alarm for logical time (round+1)·RoundLen.
func (r *RoundMidpoint) scheduleBoundary() {
	target := simtime.Time(float64(r.round+1) * float64(r.cfg.RoundLen))
	d := target.Sub(r.h.LocalNow())
	// A clock that was dragged backwards would otherwise spin; space rounds
	// at least MaxWait apart.
	if d < r.cfg.MaxWait {
		d = r.cfg.MaxWait
	}
	r.h.ScheduleLocal(d, r.boundary)
}

func (r *RoundMidpoint) boundary() {
	if r.h.Faulty() {
		// Re-derive the round after release; the alarm chain itself stays up.
		r.round = r.currentRound()
		r.scheduleBoundary()
		return
	}
	r.round = r.currentRound()
	r.collecting = true
	r.results = r.results[:0]
	r.expect = len(r.peers)
	for _, peer := range r.peers {
		r.nonce++
		r.pending[r.nonce] = roundPending{peer: peer, sentAt: r.h.LocalNow()}
		r.h.Net().Send(r.h.ID(), peer, RoundReq{Nonce: r.nonce, Round: r.round})
	}
	deadlineRound := r.round
	r.h.ScheduleLocal(r.cfg.MaxWait, func() { r.finish(deadlineRound) })
	// Schedule the next boundary regardless of this round's outcome.
	r.scheduleBoundary()
}

func (r *RoundMidpoint) receive(msg network.Message) {
	switch p := msg.Payload.(type) {
	case RoundReq:
		// Answer only adjacent rounds: older/newer round clocks are gone.
		if abs64(p.Round-r.currentRound()) <= 1 {
			r.h.Net().Send(r.h.ID(), msg.From, RoundResp{Nonce: p.Nonce, Clock: r.h.LocalNow()})
		}
	case RoundResp:
		pd, ok := r.pending[p.Nonce]
		if !ok || pd.peer != msg.From || !r.collecting {
			return
		}
		delete(r.pending, p.Nonce)
		recv := r.h.LocalNow()
		r.results = append(r.results, protocol.Estimate{
			Peer: msg.From,
			D:    p.Clock.Sub(recv) + recv.Sub(pd.sentAt)/2,
			A:    recv.Sub(pd.sentAt) / 2,
			OK:   true,
		})
	}
}

func (r *RoundMidpoint) finish(round int64) {
	if !r.collecting || r.h.Faulty() || round != r.round {
		return
	}
	r.collecting = false
	missing := r.expect - len(r.results)
	ests := append([]protocol.Estimate(nil), r.results...)
	for i := 0; i < missing; i++ {
		ests = append(ests, protocol.FailedEstimate(-1))
	}
	ests = append(ests, protocol.Estimate{Peer: r.h.ID(), D: 0, A: 0, OK: true})
	// Stale pings from this round are dead.
	r.pending = make(map[uint64]roundPending)

	m, mm, ok := trimmedExtremes(r.cfg.F, ests)
	if !ok {
		r.NoQuorum++
		return
	}
	// Classic fault-tolerant midpoint: jump to the center of the trimmed
	// range, own clock not privileged.
	r.Syncs++
	r.h.Adjust(simtime.Duration((m + mm) / 2))
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// RoundMidpointBuilder adapts the node to the scenario engine, reusing the
// scenario's SyncInt as the round length.
func RoundMidpointBuilder() scenario.Builder {
	return func(ctx scenario.BuildContext) scenario.Starter {
		return NewRoundMidpoint(ctx.Harness, RoundMidpointConfig{
			F:        ctx.Scenario.F,
			RoundLen: ctx.Scenario.SyncInt,
			MaxWait:  ctx.Scenario.MaxWait,
		}, ctx.Peers())
	}
}
