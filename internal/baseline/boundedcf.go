package baseline

import (
	"math"

	"clocksync/internal/core"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// BoundedCFConfig parameterizes the bounded-correction synchronizer.
type BoundedCFConfig struct {
	F       int
	SyncInt simtime.Duration
	MaxWait simtime.Duration
	// MaxCorrection clamps the per-round adjustment. Fetzer–Cristian-style
	// algorithms bound it by a small multiple of the reading error; the
	// smaller it is, the smoother the clock — and the slower (or more
	// impossible) recovery becomes.
	MaxCorrection simtime.Duration
	FirstSync     simtime.Duration
}

// BoundedCF is a convergence-function synchronizer whose correction is
// clamped — the minimal-correction design §1.1 contrasts Sync with. It uses
// the same estimation machinery and the same trimmed range as Sync, but
// never ignores its own clock and never moves more than MaxCorrection at a
// time: "using such small correction may delay the recovery of a processor
// with a clock very far from the correct one (such recovery may never
// complete)".
type BoundedCF struct {
	h     *protocol.Harness
	cfg   BoundedCFConfig
	peers []int

	Syncs   int
	Clamped int // rounds where the clamp actually bit
}

// NewBoundedCF builds a node.
func NewBoundedCF(h *protocol.Harness, cfg BoundedCFConfig, peers []int) *BoundedCF {
	if cfg.MaxCorrection <= 0 {
		panic("baseline: BoundedCF needs a positive MaxCorrection")
	}
	return &BoundedCF{h: h, cfg: cfg, peers: append([]int(nil), peers...)}
}

// Start implements scenario.Starter.
func (b *BoundedCF) Start() {
	b.h.ScheduleLocal(b.cfg.FirstSync, b.tick)
}

func (b *BoundedCF) tick() {
	b.h.ScheduleLocal(b.cfg.SyncInt, b.tick)
	if b.h.Faulty() {
		return
	}
	b.h.EstimateAll(b.peers, b.cfg.MaxWait, b.finish)
}

func (b *BoundedCF) finish(ests []protocol.Estimate) {
	all := append(append([]protocol.Estimate(nil), ests...),
		protocol.Estimate{Peer: b.h.ID(), D: 0, A: 0, OK: true})
	delta, ok := trimmedMidpointStep(b.cfg.F, all)
	if !ok {
		return
	}
	if c := float64(b.cfg.MaxCorrection); math.Abs(float64(delta)) > c {
		b.Clamped++
		delta = simtime.Duration(math.Copysign(c, float64(delta)))
	}
	b.Syncs++
	b.h.Adjust(delta)
}

// trimmedMidpointStep is Sync's normal-case step without the WayOff escape:
// move halfway toward the trimmed range [m, M], keeping the own clock inside
// the average.
func trimmedMidpointStep(f int, ests []protocol.Estimate) (simtime.Duration, bool) {
	m, mm, ok := trimmedExtremes(f, ests)
	if !ok {
		return 0, false
	}
	return simtime.Duration((math.Min(m, 0) + math.Max(mm, 0)) / 2), true
}

// trimmedExtremes is the selection every trimmed-range baseline shares —
// Sync's own, core.TrimmedExtremes. ok is false with fewer than 2f+1
// estimates, or when failed estimates leave either end infinite.
func trimmedExtremes(f int, ests []protocol.Estimate) (m, mm float64, ok bool) {
	if len(ests) < 2*f+1 {
		return 0, 0, false
	}
	m, mm = core.TrimmedExtremes(f, ests)
	if math.IsInf(m, 0) || math.IsInf(mm, 0) {
		return 0, 0, false
	}
	return m, mm, true
}

// BoundedCFBuilder adapts the node to the scenario engine. maxCorrection of
// zero derives the Fetzer–Cristian-flavored default 4ε.
func BoundedCFBuilder(maxCorrection simtime.Duration) scenario.Builder {
	return func(ctx scenario.BuildContext) scenario.Starter {
		mc := maxCorrection
		if mc == 0 {
			mc = 4 * ctx.Bounds.Eps
		}
		return NewBoundedCF(ctx.Harness, BoundedCFConfig{
			F:             ctx.Scenario.F,
			SyncInt:       ctx.Scenario.SyncInt,
			MaxWait:       ctx.Scenario.MaxWait,
			MaxCorrection: mc,
			FirstSync:     simtime.Duration(ctx.Rand.Float64() * float64(ctx.Scenario.SyncInt)),
		}, ctx.Peers())
	}
}
