package adversary

import (
	"math"

	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// Crash keeps the processor silent while controlled and leaves its state
// alone — a fail-stop fault.
type Crash struct{}

// RespondTime implements protocol.Behavior.
func (Crash) RespondTime(*protocol.Harness, int, simtime.Time) (simtime.Time, bool) {
	return 0, false
}

// OnCorrupt implements protocol.Behavior.
func (Crash) OnCorrupt(*protocol.Harness, simtime.Time) {}

// OnRelease implements protocol.Behavior.
func (Crash) OnRelease(*protocol.Harness, simtime.Time) {}

// ClockSmash rewrites the victim's adjustment variable on break-in, adding
// Offset to its logical clock, and thereafter reports the smashed clock
// honestly. This models the recovery problem the paper centers on: after
// release the processor runs correct code over a wrecked clock — possibly
// wrecked "just a bit outside the permitted range" (§1.1) or by an enormous
// amount — and must rejoin within the recovery horizon.
type ClockSmash struct {
	Offset simtime.Duration
	// Quiet suppresses replies while controlled.
	Quiet bool
}

// RespondTime implements protocol.Behavior.
func (b ClockSmash) RespondTime(h *protocol.Harness, _ int, now simtime.Time) (simtime.Time, bool) {
	if b.Quiet {
		return 0, false
	}
	return h.Clock().Now(now), true
}

// OnCorrupt implements protocol.Behavior.
func (b ClockSmash) OnCorrupt(h *protocol.Harness, _ simtime.Time) {
	h.Clock().Adjust(b.Offset)
}

// OnRelease implements protocol.Behavior.
func (ClockSmash) OnRelease(*protocol.Harness, simtime.Time) {}

// RandomLiar answers every request with the true clock plus independent
// uniform noise in [−Amplitude, +Amplitude] — an unsophisticated but noisy
// Byzantine fault. The noise is keyed by (seed, liar, requester, instant).
type RandomLiar struct {
	Amplitude simtime.Duration
}

// RespondTime implements protocol.Behavior.
func (b RandomLiar) RespondTime(h *protocol.Harness, peer int, now simtime.Time) (simtime.Time, bool) {
	src := network.SplitMix64{State: network.Key(h.Sim().Seed(), network.LiarTag,
		uint64(h.ID()), uint64(peer), math.Float64bits(float64(now)))}
	u := float64(src.Uint64()>>11) / (1 << 53) // uniform in [0, 1)
	noise := simtime.Duration((u*2 - 1) * float64(b.Amplitude))
	return h.Clock().Now(now).Add(noise), true
}

// OnCorrupt implements protocol.Behavior.
func (RandomLiar) OnCorrupt(*protocol.Harness, simtime.Time) {}

// OnRelease implements protocol.Behavior.
func (RandomLiar) OnRelease(*protocol.Harness, simtime.Time) {}

// ConsistentLiar reports real time plus a fixed offset to everyone — the
// strongest *consistent* pull an adversary can exert. Property 1 of the
// analysis implies f such liars cannot drag the good processors outside
// their own range; the E6 harness uses it as a control.
type ConsistentLiar struct {
	Offset simtime.Duration
}

// RespondTime implements protocol.Behavior.
func (b ConsistentLiar) RespondTime(_ *protocol.Harness, _ int, now simtime.Time) (simtime.Time, bool) {
	return now.Add(b.Offset), true
}

// OnCorrupt implements protocol.Behavior.
func (ConsistentLiar) OnCorrupt(*protocol.Harness, simtime.Time) {}

// OnRelease implements protocol.Behavior.
func (ConsistentLiar) OnRelease(*protocol.Harness, simtime.Time) {}

// SplitBrain is the two-faced attack that exhibits the n ≥ 3f+1 threshold
// (E6): to processors with id < Boundary it reports real time + Offset, to
// the rest real time − Offset. With n = 3f the lie pins each good half to
// its own clock (every trimmed extreme lands inside the half's own values),
// so the halves never pull together and relative drift separates them
// without bound. With n = 3f+1 the larger half outnumbers the trimming and
// convergence wins.
type SplitBrain struct {
	Boundary int
	Offset   simtime.Duration
}

// RespondTime implements protocol.Behavior.
func (b SplitBrain) RespondTime(_ *protocol.Harness, peer int, now simtime.Time) (simtime.Time, bool) {
	if peer < b.Boundary {
		return now.Add(b.Offset), true
	}
	return now.Add(-b.Offset), true
}

// OnCorrupt implements protocol.Behavior.
func (SplitBrain) OnCorrupt(*protocol.Harness, simtime.Time) {}

// OnRelease implements protocol.Behavior.
func (SplitBrain) OnRelease(*protocol.Harness, simtime.Time) {}

// EdgePusher reports, to every requester, real time plus Push — but unlike
// ConsistentLiar it adapts Push over time, creeping by Rate seconds per
// second of real time. It models an attacker probing for the largest
// sustainable drag.
type EdgePusher struct {
	Push simtime.Duration
	Rate float64
	t0   simtime.Time
}

// RespondTime implements protocol.Behavior.
func (b *EdgePusher) RespondTime(_ *protocol.Harness, _ int, now simtime.Time) (simtime.Time, bool) {
	creep := simtime.Duration(b.Rate * float64(now.Sub(b.t0)))
	return now.Add(b.Push + creep), true
}

// OnCorrupt implements protocol.Behavior.
func (b *EdgePusher) OnCorrupt(_ *protocol.Harness, now simtime.Time) { b.t0 = now }

// OnRelease implements protocol.Behavior.
func (*EdgePusher) OnRelease(*protocol.Harness, simtime.Time) {}

// Honest behaves exactly like a correct processor while "controlled" — a
// null fault used as an experimental control.
type Honest struct{}

// RespondTime implements protocol.Behavior.
func (Honest) RespondTime(h *protocol.Harness, _ int, now simtime.Time) (simtime.Time, bool) {
	return h.Clock().Now(now), true
}

// OnCorrupt implements protocol.Behavior.
func (Honest) OnCorrupt(*protocol.Harness, simtime.Time) {}

// OnRelease implements protocol.Behavior.
func (Honest) OnRelease(*protocol.Harness, simtime.Time) {}
