package baseline

import (
	"clocksync/internal/des"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// Tick announces that the sender's clock reached a round boundary.
type Tick struct {
	Round int64
}

// WireSize implements network.Sizer.
func (Tick) WireSize() int { return 24 }

// STConfig parameterizes the Srikanth–Toueg-style resynchronizer.
type STConfig struct {
	F      int
	Period simtime.Duration // logical time between resynchronizations
	// Alpha is the fixed boost applied when resynchronizing: accepting round
	// j sets the clock to j·Period + Alpha (compensates broadcast latency).
	Alpha simtime.Duration
}

// SrikanthToueg is an authenticated-broadcast resynchronizer in the style of
// Srikanth–Toueg '87. When a processor's clock reads (round+1)·Period it
// broadcasts Tick(round+1); when it has received Tick(j) for some j greater
// than its round from f+1 distinct processors (its own counts), it sets its
// clock to j·Period+Alpha, adopts round j, and relays Tick(j).
//
// Recovery is asymmetric: a processor whose clock was smashed backwards is
// dragged forward by the next accepted tick quorum (recovery within one
// period), but one smashed forward by X ignores everyone's "stale" ticks
// until real time catches up with its clock — recovery time ≈ X, linear in
// the offset, versus Sync's logarithmic recovery.
type SrikanthToueg struct {
	h     *protocol.Harness
	cfg   STConfig
	peers []int

	round     int64
	lastBcast int64
	ticks     map[int64]map[int]bool
	alarm     des.Event

	Resyncs int // accepted tick quorums
}

// NewSrikanthToueg builds a node.
func NewSrikanthToueg(h *protocol.Harness, cfg STConfig, peers []int) *SrikanthToueg {
	if cfg.Period <= 0 {
		panic("baseline: SrikanthToueg needs a positive period")
	}
	st := &SrikanthToueg{
		h:     h,
		cfg:   cfg,
		peers: append([]int(nil), peers...),
		ticks: make(map[int64]map[int]bool),
	}
	h.Custom = st.receive
	// §3.3: round-based protocols must recover "variables such as the
	// current round number" after a break-in — and the only surviving source
	// is the (possibly corrupted) clock. Re-derive all round state from it.
	h.OnRelease = func(simtime.Time) {
		st.round = st.currentRound()
		st.lastBcast = st.round
		st.ticks = make(map[int64]map[int]bool)
		st.rearm()
	}
	return st
}

// Start implements scenario.Starter.
func (st *SrikanthToueg) Start() {
	st.round = st.currentRound()
	st.lastBcast = st.round
	st.rearm()
}

func (st *SrikanthToueg) currentRound() int64 {
	return int64(float64(st.h.LocalNow()) / float64(st.cfg.Period))
}

// rearm schedules the next tick broadcast: when the local clock reads
// next·Period, where next is the first round not yet announced. The previous
// alarm is cancelled — after a resync jump the old target is meaningless,
// and a stale alarm would broadcast a premature tick (a cascade of which
// drives rounds arbitrarily faster than real time).
func (st *SrikanthToueg) rearm() {
	st.alarm.Cancel() // safe on the zero handle and on already-fired alarms
	next := st.round + 1
	if st.lastBcast+1 > next {
		next = st.lastBcast + 1
	}
	target := simtime.Time(float64(next) * float64(st.cfg.Period))
	d := target.Sub(st.h.LocalNow())
	if d < simtime.Millisecond {
		d = simtime.Millisecond // floor against zero-delay loops
	}
	st.alarm = st.h.ScheduleLocal(d, st.boundary)
}

func (st *SrikanthToueg) boundary() {
	st.alarm = des.Event{}
	if !st.h.Faulty() {
		next := st.round + 1
		if st.lastBcast+1 > next {
			next = st.lastBcast + 1
		}
		st.lastBcast = next
		st.recordTick(next, st.h.ID())
		st.broadcast(Tick{Round: next})
		st.tryAccept()
	}
	st.rearm()
}

func (st *SrikanthToueg) broadcast(t Tick) {
	for _, p := range st.peers {
		st.h.Net().Send(st.h.ID(), p, t)
	}
}

func (st *SrikanthToueg) receive(msg network.Message) {
	t, ok := msg.Payload.(Tick)
	if !ok {
		return
	}
	if t.Round <= st.round {
		return // stale
	}
	st.recordTick(t.Round, msg.From)
	st.tryAccept()
}

func (st *SrikanthToueg) recordTick(round int64, from int) {
	set := st.ticks[round]
	if set == nil {
		set = make(map[int]bool)
		st.ticks[round] = set
	}
	set[from] = true
}

// tryAccept adopts the highest round with a tick quorum of f+1 distinct
// senders (authenticated links make counting sound: f Byzantine processors
// can contribute at most f ticks, so a quorum proves an honest boundary).
func (st *SrikanthToueg) tryAccept() {
	var best int64 = -1
	for round, senders := range st.ticks {
		if round > st.round && len(senders) >= st.cfg.F+1 && round > best {
			best = round
		}
	}
	if best < 0 {
		return
	}
	st.round = best
	target := simtime.Time(float64(best)*float64(st.cfg.Period)) + simtime.Time(st.cfg.Alpha)
	st.h.Adjust(target.Sub(st.h.LocalNow()))
	st.Resyncs++
	if st.lastBcast < best {
		st.lastBcast = best
		st.broadcast(Tick{Round: best}) // relay the quorum we joined
	}
	for round := range st.ticks {
		if round <= st.round {
			delete(st.ticks, round)
		}
	}
	st.rearm()
}

// SrikanthTouegBuilder adapts the node to the scenario engine.
func SrikanthTouegBuilder() scenario.Builder {
	return func(ctx scenario.BuildContext) scenario.Starter {
		return NewSrikanthToueg(ctx.Harness, STConfig{
			F:      ctx.Scenario.F,
			Period: ctx.Scenario.SyncInt,
			Alpha:  ctx.Scenario.Delay.Bound() / 2,
		}, ctx.Peers())
	}
}
