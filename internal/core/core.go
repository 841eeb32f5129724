// Package core implements the paper's contribution: the Sync clock
// synchronization protocol of Figure 1.
//
// Every SyncInt units of local time, a processor estimates the clock offset
// of every peer (plus itself, trivially 0±0), turns each estimate into an
// overestimate d̄ = d+a and an underestimate d̲ = d−a, and computes
//
//	m = the (f+1)-st smallest overestimate
//	M = the (f+1)-st largest underestimate
//
// The trimming discards anything f Byzantine processors can fabricate: at
// least one of the f+1 smallest overestimates is honest, so m is at least
// the smallest honest offset (and symmetrically for M). Then:
//
//	if m ≥ −WayOff and M ≤ WayOff:   adj += (min(m,0) + max(M,0))/2
//	else:                            adj += (m+M)/2
//
// The first branch is the normal case — the clock moves halfway toward the
// trimmed range, never ignoring its own current value. The second branch is
// what makes recovery work: a processor that finds itself WayOff-far from
// the others concludes its own clock is worthless and jumps to the midpoint
// of the trimmed range. Minimal-correction convergence functions (e.g.
// Fetzer–Cristian '95) lack this escape hatch, which is exactly why they may
// never re-synchronize a recovered processor (§1.1).
package core

import (
	"fmt"
	"math"
	"sync"

	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
	"clocksync/internal/stats"
)

// Config parameterizes a Sync node. The constraints (§3.2): SyncInt ≥
// 2·MaxWait ≥ 4δ and WayOff ≥ Δ + ε. Values may overestimate the true
// network constants by a multiplicative factor without much harm (§3.3,
// "Known values"); experiment E11 quantifies that claim.
type Config struct {
	F       int              // trimming depth = per-period fault budget
	SyncInt simtime.Duration // local time between Sync executions
	MaxWait simtime.Duration // estimation timeout
	WayOff  simtime.Duration // own-clock rejection threshold
	// FirstSync is the local-time offset of the first execution. The
	// protocol makes no assumption about the relative phase of different
	// processors' Syncs (§3.3); scenarios stagger nodes with this.
	FirstSync simtime.Duration

	// DriftComp enables the NTP-style drift-feedback extension §5 lists as
	// future work: the node estimates its own frequency error from the
	// corrections it applies and disciplines its clock rate accordingly.
	// This goes beyond the paper's Definition 1 model (which permits only
	// additive adjustments) and is off by default; experiment E15 measures
	// what it buys.
	DriftComp bool

	// CachedEstimation switches the node to the §3.1 background-refresh
	// estimation variant: a cache sweeps the peers every CacheRefresh of
	// local time and Sync reads the stored values instantly. The paper
	// warns this voids Definition 4; experiment E17 shows the failure mode
	// and CacheInvalidateOnAdjust repairs it.
	CachedEstimation bool
	// CacheRefresh is the local time between cache sweeps (default
	// SyncInt/4).
	CacheRefresh simtime.Duration
	// CacheInvalidateOnAdjust drops all cached estimates after each of the
	// node's own adjustments, so a stale pre-adjustment offset can never be
	// applied twice.
	CacheInvalidateOnAdjust bool

	// SamplePeers, when positive and below the peer count, switches the node
	// to sparse estimation: each round pings a seeded random SamplePeers-of-n
	// subset instead of the full mesh, cutting a round from O(n²) to O(n·k)
	// messages at the cost of a wider accuracy envelope (E21 measures the
	// trade-off). The subset plus the self-estimate must still let the
	// convergence function trim f from both sides, so SamplePeers ≥ 2F+1 if
	// set. Zero keeps the paper's full-mesh default. The subsets are keyed
	// by the run's seed (des.Sim.Seed), node and round.
	SamplePeers int
}

// Validate rejects configurations that violate §3.2.
func (c Config) Validate() error {
	if c.F < 0 {
		return fmt.Errorf("core: negative f %d", c.F)
	}
	if c.MaxWait <= 0 {
		return fmt.Errorf("core: MaxWait %v must be positive", c.MaxWait)
	}
	if c.SyncInt < 2*c.MaxWait {
		return fmt.Errorf("core: SyncInt %v < 2·MaxWait %v", c.SyncInt, c.MaxWait)
	}
	if c.WayOff <= 0 {
		return fmt.Errorf("core: WayOff %v must be positive", c.WayOff)
	}
	if c.FirstSync < 0 {
		return fmt.Errorf("core: negative FirstSync %v", c.FirstSync)
	}
	if c.SamplePeers > 0 && c.SamplePeers < 2*c.F+1 {
		return fmt.Errorf("core: SamplePeers %d < 2f+1 = %d — the trimmed extremes would be unsafe",
			c.SamplePeers, 2*c.F+1)
	}
	return nil
}

// convergeScratch is the one buffer a convergence computation needs: the
// values the quickselect permutes, first the overestimates, then the
// underestimates. Every selection — a Round's Decide and the pure entry
// points alike — borrows one from scratchPool for the length of the call, so
// no node owns one. The zero value is ready to use: the buffer is sized by
// the first vector seen and replaced only for a longer one.
type convergeScratch struct {
	sel []float64 // quickselect operand; permuted in place by stats.KthSmallest
}

// extremes returns the (f+1)-st smallest overestimate m and the (f+1)-st
// largest underestimate M of ests — followed, when self is set, by the exact
// self-estimate 0±0 — the trimmed extremes of Figure 1, lines 6–7. ests is
// read, never permuted.
func (sc *convergeScratch) extremes(f int, ests []protocol.Estimate, self bool) (m, mm float64) {
	n := len(ests)
	if self {
		n++
	}
	if cap(sc.sel) < n {
		sc.sel = make([]float64, n)
	}
	sel := sc.sel[:n]
	for i, e := range ests {
		sel[i] = float64(e.Over())
	}
	clear(sel[len(ests):])
	m = stats.KthSmallest(sel, f+1)
	for i, e := range ests {
		sel[i] = float64(e.Under())
	}
	clear(sel[len(ests):])
	mm = stats.KthLargest(sel, f+1)
	return m, mm
}

// convergeFromExtremes applies Figure 1, lines 8–12, given the trimmed
// extremes: the adjustment, whether the WayOff "ignore own clock" branch was
// taken, and ok=false when either extreme is infinite (more than f
// estimations failed on that side, so no safe adjustment exists).
func convergeFromExtremes(m, mm float64, wayOff simtime.Duration) (delta simtime.Duration, jumped, ok bool) {
	if math.IsInf(m, 0) || math.IsInf(mm, 0) {
		return 0, false, false
	}
	w := float64(wayOff)
	if m >= -w && mm <= w {
		return simtime.Duration((math.Min(m, 0) + math.Max(mm, 0)) / 2), false, true
	}
	return simtime.Duration((m + mm) / 2), true, true
}

// scratchPool is the one source of selection scratch: it keeps every
// selection allocation-free in steady state without any caller owning a
// buffer.
var scratchPool = sync.Pool{New: func() any { return new(convergeScratch) }}

// Converge is the convergence function of Figure 1, lines 6–12, as a pure
// function: given the trimming depth f, the WayOff threshold and one
// estimate per processor (self included as {D:0, A:0}), it returns the
// adjustment to apply. ok is false when the trimmed extremes are not finite
// — more than f estimations failed on both sides, so no safe adjustment
// exists and the clock is left alone (this cannot happen under the paper's
// assumptions, but message loss beyond the model can produce it).
//
// Converge never mutates ests; its working copies live in pooled scratch, so
// the steady-state call is allocation-free.
func Converge(f int, wayOff simtime.Duration, ests []protocol.Estimate) (delta simtime.Duration, ok bool) {
	delta, _, ok = ConvergeVerdict(f, wayOff, ests)
	return delta, ok
}

// TrimmedExtremes returns the trimmed extremes of Figure 1, lines 6–7: the
// (f+1)-st smallest overestimate m and the (f+1)-st largest underestimate M
// of ests, which must hold at least f+1 estimates. It is Converge's selection
// for protocols that apply their own step to the extremes (the trimmed-range
// baselines); like Converge it never mutates ests and selects in pooled
// scratch.
func TrimmedExtremes(f int, ests []protocol.Estimate) (m, mm float64) {
	sc := scratchPool.Get().(*convergeScratch)
	m, mm = sc.extremes(f, ests, false)
	scratchPool.Put(sc)
	return m, mm
}

// ConvergeVerdict is Converge reporting additionally whether the WayOff
// "ignore own clock" branch (Figure 1, line 11) was taken — the recovery
// path a processor uses to rejoin after its clock was smashed. Live nodes
// count these jumps (clocksync_wayoff_jumps_total) so a re-joining node is
// observable.
func ConvergeVerdict(f int, wayOff simtime.Duration, ests []protocol.Estimate) (delta simtime.Duration, jumped, ok bool) {
	sc := scratchPool.Get().(*convergeScratch)
	out := sc.decide(f, wayOff, ests, false)
	scratchPool.Put(sc)
	return out.Delta, out.Jumped, out.OK
}

// Stats counts protocol activity for the experiment harness.
type Stats struct {
	Syncs          int // completed Sync executions
	Skipped        int // executions skipped (faulty or no safe adjustment)
	WayOffTriggers int // executions that took the "ignore own clock" branch
	LastDelta      simtime.Duration
}

// Node runs Sync on one processor.
type Node struct {
	h     *protocol.Harness
	cfg   Config
	stats Stats

	// Drift-compensation state (only used when cfg.DriftComp is set).
	lastSyncLocal simtime.Time // hardware reading at the previous correction
	haveLast      bool
	gain          float64

	// cache is non-nil in the §3.1 cached-estimation variant.
	cache *protocol.EstimateCache

	// sampler draws each round's peers from the node's topology neighbours:
	// cfg.SamplePeers of them in the sparse-estimation mode, and every one of
	// them otherwise. Either way it writes them into a buffer of the node's
	// lane, so the node holds no peer list at all.
	sampler *protocol.PeerSampler

	// round is the Sync round machine (round.go). It owns no buffer: the
	// estimates are lent by the harness for the length of the round and the
	// selection scratch is pooled, which keeps the tick path allocation-free
	// and a node's memory independent of how many peers it estimates.
	// roundSpan and roundStart are the open round span and its start instant —
	// only one round is in flight per node, so plain fields suffice.
	round      Round
	roundSpan  obs.SpanID
	roundStart float64

	// tickCB and applyCB are the tick/apply method values, bound once —
	// passing n.tick directly to ScheduleLocal would allocate a fresh
	// closure every round.
	tickCB  func()
	applyCB func([]protocol.Estimate)
}

// New builds a Sync node over the harness. The processors it estimates are
// its neighbours in the harness's network topology; the node adds its own
// trivial self-estimate per Figure 1's "for each q ∈ {1,…,n}".
func New(h *protocol.Harness, cfg Config) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Node{h: h, cfg: cfg,
		round:   Round{id: h.ID(), f: cfg.F, wayOff: cfg.WayOff},
		sampler: protocol.NewNeighborSampler(h.Net(), h.ID(), cfg.SamplePeers, h.Sim().Seed())}
	n.tickCB = n.tick
	n.applyCB = n.apply
	return n
}

// Harness exposes the node's harness (for corruption and measurement).
func (n *Node) Harness() *protocol.Harness { return n.h }

// Stats returns a copy of the node's activity counters.
func (n *Node) Stats() Stats { return n.stats }

// Start arms the periodic Sync alarm. The alarm chain runs on the hardware
// clock and survives corruption: a break-in cannot silently kill the loop,
// matching the paper's requirement that the alarm "is recovered after a
// break-in" (§3.3).
func (n *Node) Start() {
	if n.cfg.CachedEstimation {
		refresh := n.cfg.CacheRefresh
		if refresh == 0 {
			refresh = n.cfg.SyncInt / 4
		}
		peers := n.h.Net().Topology().Neighbors(n.h.ID())
		n.cache = protocol.NewEstimateCache(n.h, peers, refresh, n.cfg.MaxWait)
		n.cache.Start()
		// The cache's contents were writable by the adversary; they are
		// worthless after release (§3.1: the thread must be policed).
		n.h.OnRelease = func(simtime.Time) { n.cache.Invalidate() }
	}
	n.h.ScheduleLocal(n.cfg.FirstSync, n.tickCB)
}

// Cache exposes the estimate cache in the cached-estimation variant (nil
// otherwise); experiments use it to measure staleness.
func (n *Node) Cache() *protocol.EstimateCache { return n.cache }

// tick is one firing of the SyncInt alarm.
func (n *Node) tick() {
	// Re-arm first: the next execution is SyncInt after this one started,
	// regardless of what happens below.
	n.h.ScheduleLocal(n.cfg.SyncInt, n.tickCB)
	if n.h.Faulty() {
		// The adversary owns this processor; its correct logic is suspended.
		// The alarm chain itself keeps running.
		n.stats.Skipped++
		if rec := n.h.Obs.Recorder(); rec != nil {
			rec.RoundsSkipped.Inc()
		}
		return
	}
	if n.h.Obs.SpansEnabled() {
		n.roundSpan = n.h.Obs.NextSpanID()
		n.roundStart = float64(n.h.Sim().Now())
		n.h.SpanParent = n.roundSpan
	}
	if n.cache != nil {
		n.apply(n.cache.GetAll())
		return
	}
	n.h.EstimateAll(n.sampler.Sample(), n.cfg.MaxWait, n.applyCB)
}

// apply is the simulator driver's half of a round's end: it has the machine
// decide over the completed estimation round, applies the adjustment to the
// simulated clock, has the machine record the round in simulation time, and
// runs the extensions that hang off an adjustment.
func (n *Node) apply(ests []protocol.Estimate) {
	out := n.round.Decide(ests)
	if out.OK {
		if out.Jumped {
			n.stats.WayOffTriggers++
		}
		n.stats.Syncs++
		n.stats.LastDelta = out.Delta
		n.h.Adjust(out.Delta)
	} else {
		n.stats.Skipped++
	}
	n.round.Record(n.h.Obs, n.h.Obs.Recorder(), n.roundSpan, n.roundStart, float64(n.h.Sim().Now()))
	n.round.forget() // the harness hands ests to another round once apply returns
	n.roundSpan, n.h.SpanParent = 0, 0
	if !out.OK {
		return
	}
	if n.cache != nil && n.cfg.CacheInvalidateOnAdjust && out.Delta != 0 {
		n.cache.Invalidate()
	}
	if n.cfg.DriftComp {
		if out.Jumped {
			// A recovery jump says nothing about our rate; restart the
			// estimator's baseline.
			n.haveLast = false
		} else {
			n.updateDrift(out.Delta)
		}
	}
}

// The drift-compensation estimator's constants: the EWMA weight of each
// correction, and the clamp on the applied frequency discipline (10× a
// typical crystal bound).
const (
	driftCompAlpha   = 0.3
	driftCompMaxGain = 1e-3
)

// updateDrift feeds one correction into the frequency estimator: a clock
// that keeps needing negative corrections is running fast relative to the
// ensemble, so its rate gain is lowered (and vice versa). The estimate is an
// EWMA of delta/elapsed, clamped, and applied as a clock discipline.
func (n *Node) updateDrift(delta simtime.Duration) {
	now := n.h.Sim().Now()
	hwNow := n.h.Clock().Hardware().Read(now)
	if !n.haveLast {
		n.lastSyncLocal = hwNow
		n.haveLast = true
		return
	}
	elapsed := float64(hwNow.Sub(n.lastSyncLocal))
	n.lastSyncLocal = hwNow
	if elapsed <= 0 {
		return
	}
	// delta ≈ −(rate error)·elapsed, so the gain moves toward cancelling it.
	n.gain = (1-driftCompAlpha)*n.gain + driftCompAlpha*(n.gain+float64(delta)/elapsed)
	n.gain = math.Max(-driftCompMaxGain, math.Min(driftCompMaxGain, n.gain))
	n.h.Clock().SetGain(now, n.gain)
}
