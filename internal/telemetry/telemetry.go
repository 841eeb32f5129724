// Package telemetry is the fleet-side half of the observability plane: it
// scrapes N live nodes' ops endpoints (/metrics, /statusz, /spanz), merges
// the per-node state into one cluster view, joins cross-node trace spans by
// their propagated ids, and re-aligns remote span timestamps onto a shared
// cluster timeline using each node's own interval-valued reading.
//
// The alignment is where the paper earns its keep operationally: every node
// serves, next to its host wall clock, the correction its disciplined clock
// currently applies (Statusz.OffsetSec) and the uncertainty half-width its
// Theorem 5 envelope grants that reading. Adding a node's correction to its
// host-stamped span timestamps places them on the cluster timeline to within
// that uncertainty — so causal order across nodes (a request was sent before
// the remote node observed it, and observed before the reply arrived) must
// hold up to the sum of the two nodes' uncertainties. A violation beyond
// that bound is not noise: either a node's envelope is broken (Theorem 5
// assumptions violated) or the telemetry itself is lying.
//
// Package layout: prom.go parses the repository's own Prometheus exposition
// back into counters and mergeable histograms; scrape.go polls the fleet
// concurrently and tolerates per-node failures; align.go joins and checks
// spans; export.go renders the merged state as JSONL for cmd/tracestat.
package telemetry

import (
	"time"

	"clocksync/internal/livenet"
	"clocksync/internal/obs"
)

// Target names one node's ops endpoint.
type Target struct {
	// Node is the fleet node id (must match the node's configured ID: span
	// origin fields and /statusz ids are joined against it).
	Node int
	// Addr is the host:port of the node's metrics mux (Node.MetricsAddr).
	Addr string
}

// NodeScrape is everything gathered from one node in one scrape round. When
// Err is non-nil the node was unreachable (or answered garbage) and the
// other fields are zero — the fleet view degrades per-node, never whole.
type NodeScrape struct {
	Target Target
	At     time.Time // scrape completion, scraper's host clock
	Err    error

	Metrics *NodeMetrics
	Status  *livenet.Statusz
	Spans   []obs.Event
}

// Snapshot is one scrape round across the fleet, in Targets order.
type Snapshot struct {
	At    time.Time
	Nodes []NodeScrape
}

// Ok returns the scrapes that succeeded.
func (s *Snapshot) Ok() []NodeScrape {
	out := make([]NodeScrape, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		if n.Err == nil {
			out = append(out, n)
		}
	}
	return out
}

// Merged returns the fleet-wide metric merge: counters and histogram buckets
// summed across every reachable node. Gauges are summed too — right for
// occupancy-style gauges (peers dark), meaningless for signed per-node ones
// (last adjust); per-node values stay available on each NodeScrape.
func (s *Snapshot) Merged() *NodeMetrics {
	m := newNodeMetrics()
	for _, n := range s.Ok() {
		m.merge(n.Metrics)
	}
	return m
}
