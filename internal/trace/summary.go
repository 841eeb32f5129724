package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"clocksync/internal/obs"
	"clocksync/internal/stats"
)

// Summary condenses a recorded trace: per-node adjustment behaviour, the
// corruption timeline, and the deviation profile.
type Summary struct {
	Events int
	Nodes  int
	Span   float64 // last event time − first event time
	// Adjusts counts the clock steps the stream records (obs.Event.Adjustment:
	// round events, and adjust lines of legacy archives); AdjustAbs is their
	// |Δ| distribution.
	Adjusts     int
	AdjustAbs   stats.Summary
	PerNode     []NodeSummary
	Corruptions []CorruptionSpan
	Deviation   stats.Summary // good-set deviation over samples
	Samples     int
	// ByKind tallies every event kind, including kinds this package does
	// not interpret (observability streams add e.g. "round" and "timeout").
	ByKind map[string]int
	// RoundDelta is AdjustAbs restricted to round events (equal to it on
	// any stream recorded today).
	RoundDelta stats.Summary
	// Spans aggregates span records by name (round, estimate, reading,
	// adjust): count and duration distribution.
	Spans map[string]SpanStats
	// The histograms mirror the four /metrics distributions, rebuilt from
	// the recorded stream so offline summaries agree with live scrapes:
	// RTT and EstErr from estimate spans, AdjustMag from the adjustments,
	// DevHist from samples. Nil when the stream has no such data.
	RTT, EstErr, AdjustMag, DevHist *obs.Histogram
}

// SpanStats summarizes the spans sharing one name.
type SpanStats struct {
	Count int
	Dur   stats.Summary // duration distribution, seconds
}

// NodeSummary is one processor's view of the trace.
type NodeSummary struct {
	Node       int
	Adjusts    int
	MaxAdjust  float64
	Corrupted  int     // number of break-ins
	TimeFaulty float64 // total seconds under adversary control
}

// CorruptionSpan is one break-in reconstructed from corrupt/release pairs.
type CorruptionSpan struct {
	Node     int
	From, To float64
	Open     bool // release never recorded
}

// Summarize analyzes a parsed trace.
func Summarize(events []obs.Event) Summary {
	s := Summary{Events: len(events), ByKind: map[string]int{}}
	if len(events) == 0 {
		return s
	}
	var roundDeltas []float64
	minAt, maxAt := events[0].At, events[0].At
	maxNode := -1
	var adjustAbs []float64
	var deviations []float64
	spanDurs := map[string][]float64{}
	var hRTT, hErr, hAdj, hDev obs.Histogram
	perNode := map[int]*NodeSummary{}
	openCorruption := map[int]float64{}
	nodeOf := func(id int) *NodeSummary {
		ns := perNode[id]
		if ns == nil {
			ns = &NodeSummary{Node: id}
			perNode[id] = ns
		}
		return ns
	}
	for _, e := range events {
		if e.At < minAt {
			minAt = e.At
		}
		if e.At > maxAt {
			maxAt = e.At
		}
		s.ByKind[e.Kind]++
		// A round event and a legacy adjust line are the same fact — the node
		// stepped its clock — and count once, here.
		if delta, ok := e.Adjustment(); ok {
			a := math.Abs(delta)
			s.Adjusts++
			adjustAbs = append(adjustAbs, a)
			hAdj.Observe(a)
			if e.Kind == obs.KindRound {
				roundDeltas = append(roundDeltas, a)
			}
			ns := nodeOf(e.Node)
			ns.Adjusts++
			if a > ns.MaxAdjust {
				ns.MaxAdjust = a
			}
			if e.Node > maxNode {
				maxNode = e.Node
			}
		}
		switch e.Kind {
		case obs.KindSpan:
			spanDurs[e.Name] = append(spanDurs[e.Name], e.Duration())
			if e.Node > maxNode {
				maxNode = e.Node
			}
			if e.Name == obs.SpanEstimate && e.Field("ok") == 1 {
				hRTT.Observe(e.Field("rtt"))
				hErr.Observe(e.Field("a"))
			}
		case obs.KindCorrupt:
			openCorruption[e.Node] = e.At
			nodeOf(e.Node).Corrupted++
			if e.Node > maxNode {
				maxNode = e.Node
			}
		case obs.KindRelease:
			from, ok := openCorruption[e.Node]
			if !ok {
				continue
			}
			delete(openCorruption, e.Node)
			s.Corruptions = append(s.Corruptions, CorruptionSpan{Node: e.Node, From: from, To: e.At})
			nodeOf(e.Node).TimeFaulty += e.At - from
		case obs.KindSample:
			s.Samples++
			deviations = append(deviations, e.Deviation)
			hDev.Observe(e.Deviation)
			if n := len(e.Biases) - 1; n > maxNode {
				maxNode = n
			}
		}
	}
	for node, from := range openCorruption {
		s.Corruptions = append(s.Corruptions, CorruptionSpan{Node: node, From: from, To: maxAt, Open: true})
		nodeOf(node).TimeFaulty += maxAt - from
	}
	sort.Slice(s.Corruptions, func(i, j int) bool {
		if s.Corruptions[i].From != s.Corruptions[j].From {
			return s.Corruptions[i].From < s.Corruptions[j].From
		}
		return s.Corruptions[i].Node < s.Corruptions[j].Node
	})
	s.Span = maxAt - minAt
	s.Nodes = maxNode + 1
	s.AdjustAbs = stats.Summarize(adjustAbs)
	s.Deviation = stats.Summarize(deviations)
	s.RoundDelta = stats.Summarize(roundDeltas)
	if len(spanDurs) > 0 {
		s.Spans = make(map[string]SpanStats, len(spanDurs))
		for name, durs := range spanDurs {
			s.Spans[name] = SpanStats{Count: len(durs), Dur: stats.Summarize(durs)}
		}
	}
	if hRTT.Count() > 0 {
		s.RTT = &hRTT
	}
	if hErr.Count() > 0 {
		s.EstErr = &hErr
	}
	if hAdj.Count() > 0 {
		s.AdjustMag = &hAdj
	}
	if hDev.Count() > 0 {
		s.DevHist = &hDev
	}
	// Dense per-node rows (quiet nodes included) for plausible cluster
	// sizes; a corrupted trace claiming a huge node id must not make the
	// summary materialize millions of rows, so beyond the cap only nodes
	// that actually appeared are listed.
	const denseNodeCap = 1 << 10
	if maxNode < denseNodeCap {
		for id := 0; id <= maxNode; id++ {
			if ns := perNode[id]; ns != nil {
				s.PerNode = append(s.PerNode, *ns)
			} else {
				s.PerNode = append(s.PerNode, NodeSummary{Node: id})
			}
		}
	} else {
		for _, ns := range perNode {
			s.PerNode = append(s.PerNode, *ns)
		}
		sort.Slice(s.PerNode, func(i, j int) bool { return s.PerNode[i].Node < s.PerNode[j].Node })
	}
	return s
}

// String renders a human-readable report.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events over %.1fs, %d nodes\n", s.Events, s.Span, s.Nodes)
	if len(s.ByKind) > 0 {
		kinds := make([]string, 0, len(s.ByKind))
		for k := range s.ByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, 0, len(kinds))
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s=%d", k, s.ByKind[k]))
		}
		fmt.Fprintf(&b, "kinds: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(&b, "adjustments: %d total, |Δ| mean %.4gs p99 %.4gs max %.4gs\n",
		s.Adjusts, s.AdjustAbs.Mean, s.AdjustAbs.P99, s.AdjustAbs.Max)
	if n := s.ByKind["round"]; n > 0 {
		fmt.Fprintf(&b, "rounds: %d, |Δ| mean %.4gs p99 %.4gs max %.4gs\n",
			n, s.RoundDelta.Mean, s.RoundDelta.P99, s.RoundDelta.Max)
	}
	if s.Samples > 0 {
		fmt.Fprintf(&b, "deviation: %d samples, mean %.4gs p99 %.4gs max %.4gs\n",
			s.Samples, s.Deviation.Mean, s.Deviation.P99, s.Deviation.Max)
	}
	if len(s.Spans) > 0 {
		names := make([]string, 0, len(s.Spans))
		for n := range s.Spans {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "spans:\n")
		for _, n := range names {
			st := s.Spans[n]
			fmt.Fprintf(&b, "  %-9s %5d  dur p50 %.4gs p99 %.4gs max %.4gs\n",
				n, st.Count, st.Dur.P50, st.Dur.P99, st.Dur.Max)
		}
	}
	hists := []struct {
		name string
		h    *obs.Histogram
	}{
		{"rtt", s.RTT},
		{"estimate error", s.EstErr},
		{"|adjust|", s.AdjustMag},
		{"deviation", s.DevHist},
	}
	header := false
	for _, hm := range hists {
		if hm.h == nil {
			continue
		}
		if !header {
			fmt.Fprintf(&b, "histograms (p50/p95/p99):\n")
			header = true
		}
		fmt.Fprintf(&b, "  %-15s n=%-6d %.4gs / %.4gs / %.4gs\n",
			hm.name, hm.h.Count(), hm.h.Quantile(0.50), hm.h.Quantile(0.95), hm.h.Quantile(0.99))
	}
	if len(s.Corruptions) > 0 {
		fmt.Fprintf(&b, "corruptions: %d\n", len(s.Corruptions))
		for _, c := range s.Corruptions {
			open := ""
			if c.Open {
				open = " (never released)"
			}
			fmt.Fprintf(&b, "  node %2d  [%.1fs, %.1fs)%s\n", c.Node, c.From, c.To, open)
		}
	}
	fmt.Fprintf(&b, "per node:\n")
	for _, ns := range s.PerNode {
		fmt.Fprintf(&b, "  node %2d  %4d adjusts, max |Δ| %.4gs, %d break-ins, %.1fs faulty\n",
			ns.Node, ns.Adjusts, ns.MaxAdjust, ns.Corrupted, ns.TimeFaulty)
	}
	return b.String()
}
