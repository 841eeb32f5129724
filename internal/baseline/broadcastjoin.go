package baseline

import (
	"math"

	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// TimeBcast is a (simulated-)signed clock broadcast. Hops counts the
// signature chain: every relay appends a signature, growing the wire size —
// the overhead broadcast-based protocols pay for equivocation resistance.
type TimeBcast struct {
	Origin int
	Seq    uint64
	Clock  simtime.Time
	Hops   int
}

// WireSize implements network.Sizer: header plus one 64-byte signature per
// hop.
func (b TimeBcast) WireSize() int { return 40 + 64*b.Hops }

// BroadcastJoinConfig parameterizes the broadcast synchronizer.
type BroadcastJoinConfig struct {
	F       int
	SyncInt simtime.Duration
	// HopDelay is the per-hop latency compensation added to received
	// broadcast values (≈ the mean one-way delay).
	HopDelay simtime.Duration
}

// BroadcastJoin is a signed-broadcast synchronizer in the style of
// Dolev–Halpern–Simons–Strong '95. Every SyncInt of local time a processor
// broadcasts its clock; every correct receiver relays each first-seen
// broadcast once to all its other neighbors. Processors adjust to the
// (f+1)-trimmed midpoint of the freshest value per origin.
//
// Functionally it synchronizes; the cost is the point (E8): one exchange by
// one origin is Θ(n²) messages with growing signature chains, against Θ(n)
// fixed-size messages for a Sync round — the practical disadvantages §1.1
// lists for broadcast-based algorithms.
type BroadcastJoin struct {
	h     *protocol.Harness
	cfg   BroadcastJoinConfig
	peers []int

	seq    uint64
	seen   map[bcastKey]bool
	latest map[int]bcastSample

	Syncs int
}

type bcastKey struct {
	origin int
	seq    uint64
}

type bcastSample struct {
	offset  simtime.Duration // estimated C_origin − C_mine at receipt
	localAt simtime.Time     // local receipt time, for freshness
}

// NewBroadcastJoin builds a node.
func NewBroadcastJoin(h *protocol.Harness, cfg BroadcastJoinConfig, peers []int) *BroadcastJoin {
	if cfg.SyncInt <= 0 {
		panic("baseline: BroadcastJoin needs a positive SyncInt")
	}
	b := &BroadcastJoin{
		h:      h,
		cfg:    cfg,
		peers:  append([]int(nil), peers...),
		seen:   make(map[bcastKey]bool),
		latest: make(map[int]bcastSample),
	}
	h.Custom = b.receive
	return b
}

// Start implements scenario.Starter.
func (b *BroadcastJoin) Start() {
	b.h.ScheduleLocal(b.cfg.SyncInt, b.tick)
}

func (b *BroadcastJoin) tick() {
	b.h.ScheduleLocal(b.cfg.SyncInt, b.tick)
	if b.h.Faulty() {
		return
	}
	b.adjust()
	b.seq++
	msg := TimeBcast{Origin: b.h.ID(), Seq: b.seq, Clock: b.h.LocalNow(), Hops: 1}
	for _, p := range b.peers {
		b.h.Net().Send(b.h.ID(), p, msg)
	}
}

func (b *BroadcastJoin) receive(msg network.Message) {
	bc, ok := msg.Payload.(TimeBcast)
	if !ok {
		return
	}
	key := bcastKey{origin: bc.Origin, seq: bc.Seq}
	if b.seen[key] || bc.Origin == b.h.ID() {
		return
	}
	b.seen[key] = true
	now := b.h.LocalNow()
	estimated := bc.Clock.Add(simtime.Duration(bc.Hops) * b.cfg.HopDelay)
	b.latest[bc.Origin] = bcastSample{offset: estimated.Sub(now), localAt: now}
	if bc.Hops == 1 {
		relay := bc
		relay.Hops = 2
		for _, p := range b.peers {
			if p != bc.Origin && p != msg.From {
				b.h.Net().Send(b.h.ID(), p, relay)
			}
		}
	}
}

// adjust applies the trimmed-midpoint step over fresh per-origin values.
func (b *BroadcastJoin) adjust() {
	now := b.h.LocalNow()
	ests := []protocol.Estimate{{Peer: b.h.ID(), D: 0, A: 0, OK: true}}
	for origin, s := range b.latest {
		age := now.Sub(s.localAt)
		if age > 2*b.cfg.SyncInt {
			continue // stale origin (crashed or partitioned)
		}
		// One-way estimates carry no RTT bound; use the hop compensation as
		// the error bar.
		ests = append(ests, protocol.Estimate{Peer: origin, D: s.offset, A: b.cfg.HopDelay, OK: true})
	}
	m, mm, ok := trimmedExtremes(b.cfg.F, ests)
	if !ok {
		return
	}
	b.Syncs++
	b.h.Adjust(simtime.Duration((math.Min(m, 0) + math.Max(mm, 0)) / 2))
}

// BroadcastJoinBuilder adapts the node to the scenario engine.
func BroadcastJoinBuilder() scenario.Builder {
	return func(ctx scenario.BuildContext) scenario.Starter {
		return NewBroadcastJoin(ctx.Harness, BroadcastJoinConfig{
			F:        ctx.Scenario.F,
			SyncInt:  ctx.Scenario.SyncInt,
			HopDelay: ctx.Scenario.Delay.Bound() / 2,
		}, ctx.Peers())
	}
}
