package telemetry

import (
	"fmt"
	"sort"
	"time"

	"clocksync/internal/obs"
)

// AlignConfig tunes the cross-node span alignment.
type AlignConfig struct {
	// Slack is extra tolerance beyond the two nodes' uncertainty intervals,
	// absorbing span-timestamping overhead (time.Now calls around the actual
	// wire events) and float rounding. Default 2ms.
	Slack time.Duration
	// AsymThreshold flags a directed link whose mean midpoint residual
	// exceeds it: under symmetric delay the responder's observation sits at
	// the midpoint of the requester's send→recv window, so a persistent
	// offset ≈ ±D/2 exposes one-directional extra delay D that the protocol
	// honestly absorbed into its uncertainty. Default 5ms.
	AsymThreshold time.Duration
	// MinLinkSamples is the minimum joined pairs on a directed link before
	// its residual mean is trusted. Default 3.
	MinLinkSamples int
	// EpochLag is how many sync epochs a node may trail the fleet maximum
	// before it is reported stale. Default 3.
	EpochLag uint64
}

func (c AlignConfig) withDefaults() AlignConfig {
	if c.Slack == 0 {
		c.Slack = 2 * time.Millisecond
	}
	if c.AsymThreshold == 0 {
		c.AsymThreshold = 5 * time.Millisecond
	}
	if c.MinLinkSamples == 0 {
		c.MinLinkSamples = 3
	}
	if c.EpochLag == 0 {
		c.EpochLag = 3
	}
	return c
}

// JoinedPair is one cross-node exchange reassembled from its two halves: the
// requester's span (estimate or query) and the responder's span (reply or
// serve) carrying the same propagated id. All times are cluster-timeline
// Unix seconds — each side's host timestamps shifted by that node's own
// statusz correction.
type JoinedPair struct {
	Origin    int    // requester node
	Responder int    // responder node
	SpanID    uint64 // the propagated id both sides recorded
	Kind      string // requester span name: "estimate" (sync) or "query" (serve)

	Send     float64 // requester send, cluster timeline
	Recv     float64 // requester reply receipt, cluster timeline
	Remote   float64 // responder observation, cluster timeline
	Tol      float64 // allowed slop: unc(origin) + unc(responder) + slack, seconds
	Residual float64 // Remote − (Send+Recv)/2, seconds
	Violated bool    // Remote outside [Send−Tol, Recv+Tol]
}

// LinkWarning reports a directed link whose joined pairs show systematic
// delay asymmetry.
type LinkWarning struct {
	From, To     int
	Samples      int
	MeanResidual float64 // seconds; sign says which direction carries the extra delay
}

func (w LinkWarning) String() string {
	return fmt.Sprintf("link %d->%d: mean midpoint residual %+.3fms over %d joined spans (asymmetric delay ~%.3fms)",
		w.From, w.To, w.MeanResidual*1e3, w.Samples, 2*w.MeanResidual*1e3)
}

// StaleNode reports a node whose sync epoch trails the fleet.
type StaleNode struct {
	Node       int
	Epoch      uint64
	FleetEpoch uint64
}

// Alignment is the outcome of joining one Snapshot's spans.
type Alignment struct {
	// Completed counts requester-side spans of completed exchanges (ok
	// estimates and query spans) — the join-rate denominator.
	Completed int
	// Pairs are the exchanges whose responder half was found, sorted by
	// send time. len(Pairs)/Completed is the fleet's join rate.
	Pairs      []JoinedPair
	Violations int // pairs with Violated set
	Links      []LinkWarning
	Stale      []StaleNode
}

// JoinRate returns len(Pairs)/Completed (1 when nothing completed).
func (a *Alignment) JoinRate() float64 {
	if a.Completed == 0 {
		return 1
	}
	return float64(len(a.Pairs)) / float64(a.Completed)
}

// joinKey identifies one propagated span fleet-wide. Span ids are issued
// per-node (separate processes, colliding counters), so the requester's node
// id is part of the key.
type joinKey struct {
	origin int
	id     uint64
}

// Align joins the snapshot's cross-node spans, checks causal order on the
// shared timeline, and derives link-asymmetry and stale-epoch findings.
// Nodes that failed to scrape contribute nothing; exchanges whose responder
// was unreachable simply stay unjoined.
func Align(snap *Snapshot, cfg AlignConfig) *Alignment {
	cfg = cfg.withDefaults()
	out := &Alignment{}
	ok := snap.Ok()

	// Per-node alignment seam: correction onto the cluster timeline and the
	// envelope half-width bounding how precise that seam is.
	corr := make(map[int]float64, len(ok))
	unc := make(map[int]float64, len(ok))
	var fleetEpoch uint64
	for _, n := range ok {
		corr[n.Target.Node] = n.Status.OffsetSec
		unc[n.Target.Node] = n.Status.UncertaintySec
		if n.Status.Epoch > fleetEpoch {
			fleetEpoch = n.Status.Epoch
		}
	}
	for _, n := range ok {
		if fleetEpoch-n.Status.Epoch > cfg.EpochLag {
			out.Stale = append(out.Stale, StaleNode{
				Node: n.Target.Node, Epoch: n.Status.Epoch, FleetEpoch: fleetEpoch,
			})
		}
	}

	// Gather spans, deduplicating: with a shared observer every node's ring
	// holds the whole fleet's spans, so the same record can arrive from
	// several scrapes.
	type spanKey struct {
		node int
		name string
		id   uint64
		at   float64
	}
	seen := make(map[spanKey]bool)
	responders := make(map[joinKey]obs.Event)
	var requesters []obs.Event
	for _, n := range ok {
		for _, e := range n.Spans {
			if e.Kind != obs.KindSpan || e.Span == 0 {
				continue
			}
			sk := spanKey{node: e.Node, name: e.Name, id: e.Span, at: e.At}
			if seen[sk] {
				continue
			}
			seen[sk] = true
			switch e.Name {
			case "reply", "serve":
				responders[joinKey{origin: int(e.Field("origin")), id: e.Span}] = e
			case "estimate":
				if e.Field("ok") == 1 {
					requesters = append(requesters, e)
				}
			case "query":
				requesters = append(requesters, e)
			}
		}
	}

	out.Completed = len(requesters)
	linkSum := make(map[[2]int]float64)
	linkN := make(map[[2]int]int)
	for _, req := range requesters {
		resp, found := responders[joinKey{origin: req.Node, id: req.Span}]
		if !found {
			continue
		}
		cO, cR := corr[req.Node], corr[resp.Node]
		p := JoinedPair{
			Origin:    req.Node,
			Responder: resp.Node,
			SpanID:    req.Span,
			Kind:      req.Name,
			Send:      req.At + cO,
			Recv:      req.At + req.Duration() + cO,
			Remote:    resp.At + cR,
			Tol:       unc[req.Node] + unc[resp.Node] + cfg.Slack.Seconds(),
		}
		p.Residual = p.Remote - (p.Send+p.Recv)/2
		p.Violated = p.Remote < p.Send-p.Tol || p.Remote > p.Recv+p.Tol
		if p.Violated {
			out.Violations++
		}
		out.Pairs = append(out.Pairs, p)
		link := [2]int{p.Origin, p.Responder}
		linkSum[link] += p.Residual
		linkN[link]++
	}
	sort.Slice(out.Pairs, func(i, j int) bool { return out.Pairs[i].Send < out.Pairs[j].Send })

	for link, n := range linkN {
		if n < cfg.MinLinkSamples {
			continue
		}
		mean := linkSum[link] / float64(n)
		if mean > cfg.AsymThreshold.Seconds() || mean < -cfg.AsymThreshold.Seconds() {
			out.Links = append(out.Links, LinkWarning{
				From: link[0], To: link[1], Samples: n, MeanResidual: mean,
			})
		}
	}
	sort.Slice(out.Links, func(i, j int) bool {
		if out.Links[i].From != out.Links[j].From {
			return out.Links[i].From < out.Links[j].From
		}
		return out.Links[i].To < out.Links[j].To
	})
	sort.Slice(out.Stale, func(i, j int) bool { return out.Stale[i].Node < out.Stale[j].Node })
	return out
}
