// Package obs is the observability layer shared by the simulator and the
// live deployment: lock-free counters and gauges (Recorder), a structured
// event stream with pluggable sinks (Event/Sink), and an HTTP exporter
// serving Prometheus-style text on /metrics plus the net/http/pprof
// profiling endpoints.
//
// The paper's guarantees are statements about observable quantities — the
// deviation Δ of Theorem 5, the discontinuity ψ of Definition 3(ii), the
// Lemma 7 recovery halving — and checking them on a running deployment
// requires the system to emit the per-round signals they are computed from.
// Every layer of this repository therefore reports through this package:
// internal/core emits one event per Sync execution, internal/livenet counts
// datagrams and authentication failures on its UDP paths, and
// internal/scenario attaches an Observer to every simulated processor.
//
// All types are safe for concurrent use; the simulator uses them from a
// single goroutine and live nodes from several.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: negative add to a counter")
	}
	c.v.Add(n)
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic float64 gauge. The zero value reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Recorder aggregates the protocol's operational counters and gauges. One
// Recorder describes one processor (live node or simulated cluster); fields
// are updated in place by the instrumented layers and exported through
// WriteProm. The zero value is ready to use, but shared instances should be
// created with NewRecorder so they are always pointers.
type Recorder struct {
	// Message-path counters (livenet UDP paths; simulator network totals).
	MessagesSent     Counter // datagrams (or simulated messages) sent
	MessagesReceived Counter // datagrams received and parsed as ours
	MessagesDropped  Counter // refused before the protocol (decode or MAC), unsent, or lost in transit
	AuthFailures     Counter // messages rejected by HMAC verification
	RepliesRefused   Counter // authenticated replies to an unknown or spent nonce, or from the wrong peer

	// Protocol counters.
	SyncRounds         Counter // completed Sync executions (Figure 1 runs)
	RoundsSkipped      Counter // executions skipped (faulty, or no safe adjustment)
	EstimationTimeouts Counter // per-peer estimations that hit MaxWait
	WayOffJumps        Counter // rounds that took the "ignore own clock" recovery branch

	// Resilience counters and gauges (livenet retry/degradation path).
	Retries     Counter // per-peer estimation retransmissions within a round
	PeerRejoins Counter // dark peers that answered again and were marked bright
	PeersDark   Gauge   // peers currently considered dark (health tracking)

	// Fault-injection counters (FaultTransport; zero outside chaos runs).
	FaultDrops          Counter // packets dropped by ambient chaos
	FaultDups           Counter // packets duplicated by ambient chaos
	FaultReorders       Counter // packets held past their successor
	FaultDelays         Counter // packets given bounded extra delay
	FaultCrashDrops     Counter // packets cut by a crash window
	FaultPartitionDrops Counter // packets cut by a partition window

	// Time-serving counters (livenet serve path; zero when nobody queries).
	ServeQueries Counter // 4-timestamp time queries answered
	ServeBad     Counter // malformed serve datagrams discarded
	ServeDropped Counter // serve replies the transport failed to send

	// Convergence gauges.
	LastAdjust Gauge // most recent convergence adjustment, in seconds (signed)
	// AmortizationProgress is the fraction of the last adjustment already
	// applied to the clock: 1 for the paper's instantaneous additive
	// adjustments; slewing extensions report partial progress.
	AmortizationProgress Gauge

	// Distribution histograms (shared log-bucketed layout; see Histogram).
	RTT          Histogram // peer estimation round-trip time, seconds
	EstError     Histogram // estimation error bound a of Definition 4, seconds
	AdjustMag    Histogram // |adjustment| per non-skipped round, seconds
	Deviation    Histogram // good-set deviation per measurement sample, seconds
	ServeLatency Histogram // server-side serve-query handling latency (sampled), seconds
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Metric is one exported time-series point: a name in Prometheus convention,
// its type ("counter" or "gauge"), a help line, and the current value.
type Metric struct {
	Name  string
	Type  string
	Help  string
	Value float64
}

// Snapshot returns the recorder's metrics in a fixed order. Counter values
// use the _total suffix per Prometheus naming conventions.
func (r *Recorder) Snapshot() []Metric {
	return []Metric{
		{"clocksync_messages_sent_total", "counter", "Messages sent on the sync wire.", float64(r.MessagesSent.Load())},
		{"clocksync_messages_received_total", "counter", "Messages received and accepted.", float64(r.MessagesReceived.Load())},
		{"clocksync_messages_dropped_total", "counter", "Messages lost in transit or discarded before the protocol.", float64(r.MessagesDropped.Load())},
		{"clocksync_auth_failures_total", "counter", "Messages rejected by HMAC verification.", float64(r.AuthFailures.Load())},
		{"clocksync_replies_refused_total", "counter", "Authenticated replies refused: unknown or spent nonce (replay, late duplicate) or wrong peer.", float64(r.RepliesRefused.Load())},
		{"clocksync_sync_rounds_total", "counter", "Completed Sync executions.", float64(r.SyncRounds.Load())},
		{"clocksync_rounds_skipped_total", "counter", "Sync executions skipped (faulty or no safe adjustment).", float64(r.RoundsSkipped.Load())},
		{"clocksync_estimation_timeouts_total", "counter", "Per-peer estimations that timed out (a=∞ sentinel).", float64(r.EstimationTimeouts.Load())},
		{"clocksync_wayoff_jumps_total", "counter", "Rounds that took the WayOff recovery branch.", float64(r.WayOffJumps.Load())},
		{"clocksync_retries_total", "counter", "Per-peer estimation retransmissions within a round.", float64(r.Retries.Load())},
		{"clocksync_peer_rejoins_total", "counter", "Dark peers that answered again and were marked bright.", float64(r.PeerRejoins.Load())},
		{"clocksync_peers_dark", "gauge", "Peers currently considered dark by health tracking.", r.PeersDark.Load()},
		{"clocksync_faultnet_drops_total", "counter", "Packets dropped by injected ambient chaos.", float64(r.FaultDrops.Load())},
		{"clocksync_faultnet_dups_total", "counter", "Packets duplicated by injected ambient chaos.", float64(r.FaultDups.Load())},
		{"clocksync_faultnet_reorders_total", "counter", "Packets held past their successor by injected chaos.", float64(r.FaultReorders.Load())},
		{"clocksync_faultnet_delays_total", "counter", "Packets given bounded extra injected delay.", float64(r.FaultDelays.Load())},
		{"clocksync_faultnet_crash_drops_total", "counter", "Packets cut by an injected crash window.", float64(r.FaultCrashDrops.Load())},
		{"clocksync_faultnet_partition_drops_total", "counter", "Packets cut by an injected partition window.", float64(r.FaultPartitionDrops.Load())},
		{"clocksync_serve_queries_total", "counter", "Time queries answered on the serve path.", float64(r.ServeQueries.Load())},
		{"clocksync_serve_bad_total", "counter", "Malformed serve datagrams discarded.", float64(r.ServeBad.Load())},
		{"clocksync_serve_dropped_total", "counter", "Serve replies the transport failed to send.", float64(r.ServeDropped.Load())},
		{"clocksync_last_adjust_seconds", "gauge", "Most recent convergence adjustment (signed seconds).", r.LastAdjust.Load()},
		{"clocksync_amortization_progress", "gauge", "Fraction of the last adjustment applied to the clock.", r.AmortizationProgress.Load()},
	}
}

// HistMetric is one exported histogram: a name in Prometheus convention
// (base unit seconds, no suffix), a help line, and the live histogram.
type HistMetric struct {
	Name string
	Help string
	H    *Histogram
}

// Histograms returns the recorder's histograms in a fixed order. The returned
// pointers are live — observations after the call are visible through them.
func (r *Recorder) Histograms() []HistMetric {
	return []HistMetric{
		{"clocksync_rtt_seconds", "Peer estimation round-trip time.", &r.RTT},
		{"clocksync_estimate_error_seconds", "Estimation error bound a (Definition 4).", &r.EstError},
		{"clocksync_adjust_magnitude_seconds", "Absolute convergence adjustment per round.", &r.AdjustMag},
		{"clocksync_deviation_seconds", "Good-set deviation per measurement sample.", &r.Deviation},
		{"clocksync_serve_latency_seconds", "Server-side serve-query handling latency (sampled).", &r.ServeLatency},
	}
}

// WriteProm renders the recorder in the Prometheus text exposition format.
// labels, when non-empty, is inserted verbatim into every sample's label set
// (e.g. `node="3"`).
func (r *Recorder) WriteProm(w io.Writer, labels string) error {
	return WriteProm(w, map[string]*Recorder{labels: r})
}

// WriteProm renders several recorders — keyed by their label set — as one
// exposition, emitting each metric's HELP/TYPE header once. Deployments with
// many nodes in one process (Cluster) use it to serve a single /metrics page.
func WriteProm(w io.Writer, byLabels map[string]*Recorder) error {
	keys := make([]string, 0, len(byLabels))
	for k := range byLabels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snaps := make(map[string][]Metric, len(keys))
	var order []Metric
	for i, k := range keys {
		snaps[k] = byLabels[k].Snapshot()
		if i == 0 {
			order = snaps[k]
		}
	}
	var b strings.Builder
	for i, m := range order {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Type)
		for _, k := range keys {
			sample := snaps[k][i]
			if k == "" {
				fmt.Fprintf(&b, "%s %s\n", sample.Name, formatValue(sample.Value))
			} else {
				fmt.Fprintf(&b, "%s{%s} %s\n", sample.Name, k, formatValue(sample.Value))
			}
		}
	}
	if len(keys) > 0 {
		writePromHistograms(&b, keys, byLabels)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promQuantiles are the quantile gauges derived from each histogram.
var promQuantiles = []struct {
	suffix string
	q      float64
}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}}

// writePromHistograms renders every recorder's histograms: the Prometheus
// histogram series (_bucket with cumulative counts, _sum, _count) followed by
// p50/p95/p99 estimate gauges so dashboards get quantiles without PromQL.
func writePromHistograms(b *strings.Builder, keys []string, byLabels map[string]*Recorder) {
	nHists := len(byLabels[keys[0]].Histograms())
	for hi := 0; hi < nHists; hi++ {
		name := byLabels[keys[0]].Histograms()[hi].Name
		help := byLabels[keys[0]].Histograms()[hi].Help
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, k := range keys {
			hm := byLabels[k].Histograms()[hi]
			buckets := hm.H.Buckets()
			var cum int64
			for i := 0; i < histEdges; i++ {
				cum += buckets[i]
				fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, joinLabels(k, fmt.Sprintf("le=%q", formatValue(histBounds[i]))), cum)
			}
			cum += buckets[histEdges]
			fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, joinLabels(k, `le="+Inf"`), cum)
			if k == "" {
				fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", name, formatValue(hm.H.Sum()), name, hm.H.Count())
			} else {
				fmt.Fprintf(b, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, k, formatValue(hm.H.Sum()), name, k, hm.H.Count())
			}
		}
		for _, pq := range promQuantiles {
			gname := name + "_" + pq.suffix
			fmt.Fprintf(b, "# HELP %s Estimated %g-quantile of %s.\n# TYPE %s gauge\n", gname, pq.q, name, gname)
			for _, k := range keys {
				hm := byLabels[k].Histograms()[hi]
				if k == "" {
					fmt.Fprintf(b, "%s %s\n", gname, formatValue(hm.H.Quantile(pq.q)))
				} else {
					fmt.Fprintf(b, "%s{%s} %s\n", gname, k, formatValue(hm.H.Quantile(pq.q)))
				}
			}
		}
	}
}

// joinLabels merges a recorder's label set with a per-sample label.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

// formatValue renders a sample value the way Prometheus expects: integers
// without an exponent, everything else in shortest-float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
