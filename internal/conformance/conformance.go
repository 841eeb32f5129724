package conformance

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"clocksync/internal/obs"
)

// Config declares what the checked run was configured with. F is required
// (the refinement is meaningless without the declared fault bound); WayOff
// and Tol are optional.
type Config struct {
	// F is the fault bound the run declared (trimming depth, quorum).
	F int
	// WayOff is the configured WayOff threshold in seconds. When zero the
	// branch decision cannot be pinned, and a recorded adjustment is
	// accepted if either branch's formula reproduces it.
	WayOff float64
	// Tol is the numeric tolerance for matching recorded adjustments
	// (default 1e-6 — covers the live path's nanosecond truncation).
	Tol float64
}

func (c Config) withDefaults() Config {
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	return c
}

// Violation is one observed transition the spec does not allow. Action uses
// the spec's vocabulary (internal/mc); Round is the offending round span.
type Violation struct {
	At     float64
	Node   int
	Round  uint64
	Action string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f p%d %s: %s (round span %d)", v.At, v.Node, v.Action, v.Detail, v.Round)
}

// Stats summarizes what the check actually replayed — a refinement pass
// over zero rounds proves nothing, so consumers should surface these.
type Stats struct {
	Events      int // input records
	Nodes       int // distinct nodes seen
	Rounds      int // adjustment rounds replayed through the spec
	Skips       int // skip rounds replayed
	Estimates   int // peer estimates mapped onto ReceiveReply/Timeout
	Corruptions int // corruption windows honored
	// TelemetrySpans counts fleet-telemetry spans (reply/serve/query) seen
	// and deliberately left out of the refinement: they describe the *other*
	// node's view of an exchange already replayed from the requester side,
	// so replaying them too would double-count transitions. Counting them
	// proves a merged syncmon export passed through unmangled.
	TelemetrySpans int
}

// Report is the outcome of one Check.
type Report struct {
	Stats      Stats
	Violations []Violation
}

// Ok reports whether the trace refines the spec.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Summary renders a one-line outcome for CLI output.
func (r *Report) Summary() string {
	return fmt.Sprintf("conformance: %d rounds + %d skips replayed, %d estimates, %d nodes, %d violations",
		r.Stats.Rounds, r.Stats.Skips, r.Stats.Estimates, r.Stats.Nodes, len(r.Violations))
}

// window is one [from, to) corruption interval of a node.
type window struct{ from, to float64 }

// ErrNoRoundSpans is Check's refusal of a stream it cannot replay: the
// refinement works round by round from the recorded span trees, and round
// events alone do not carry the estimates a round decided on.
var ErrNoRoundSpans = errors.New("conformance: no round spans in the stream (record it with span output on, e.g. -trace-spans)")

// Check replays a recorded trace (the JSONL stream of internal/obs events
// and spans, parsed by trace.Read or collected in-process) through the
// abstract spec's transition relation. Violations come back in
// deterministic (time, span) order. A stream without round spans is an
// error (ErrNoRoundSpans), never a pass.
func Check(events []obs.Event, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.F < 0 {
		return nil, fmt.Errorf("conformance: negative F")
	}
	rep := &Report{}
	rep.Stats.Events = len(events)

	nodes := map[int]bool{}
	corrupts := map[int][]obs.Event{}
	var roundSpans []obs.Event
	estsByParent := map[uint64][]obs.Event{}

	for _, e := range events {
		switch e.Kind {
		case obs.KindSpan:
			nodes[e.Node] = true
			switch e.Name {
			case obs.SpanRound:
				roundSpans = append(roundSpans, e)
			case obs.SpanEstimate:
				estsByParent[e.Parent] = append(estsByParent[e.Parent], e)
			case obs.SpanReply, obs.SpanServe, obs.SpanQuery:
				rep.Stats.TelemetrySpans++
			}
		case obs.KindCorrupt, obs.KindRelease:
			corrupts[e.Node] = append(corrupts[e.Node], e)
		case obs.KindRound, obs.KindAdjust, obs.KindSkip:
			nodes[e.Node] = true
		}
	}
	if len(roundSpans) == 0 {
		return nil, ErrNoRoundSpans
	}
	rep.Stats.Nodes = len(nodes)

	// Corruption windows per node. One simulated run records break-ins in
	// time order, but a stream merged from several live nodes (syncmon
	// -export) or collected from concurrent emitters is not, so sort.
	windows := map[int][]window{}
	for node, evs := range corrupts {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		var open *window
		for _, e := range evs {
			switch e.Kind {
			case obs.KindCorrupt:
				if open == nil {
					windows[node] = append(windows[node], window{from: e.At, to: math.Inf(1)})
					open = &windows[node][len(windows[node])-1]
				}
			case obs.KindRelease:
				if open != nil {
					open.to = e.At
					open = nil
				}
			}
		}
		rep.Stats.Corruptions += len(windows[node])
	}

	// Time-window comparisons need a coarser tolerance than delta matching:
	// live traces carry Unix-seconds floats whose ULP is ~2e-7.
	timeTol := math.Max(cfg.Tol, 1e-5)
	inWindow := func(node int, from, to float64) bool {
		for _, w := range windows[node] {
			if from < w.to-timeTol && to > w.from+timeTol {
				return true
			}
		}
		return false
	}

	// Deterministic replay order: by start time, then span id.
	sort.SliceStable(roundSpans, func(i, j int) bool {
		if roundSpans[i].At != roundSpans[j].At {
			return roundSpans[i].At < roundSpans[j].At
		}
		return roundSpans[i].Span < roundSpans[j].Span
	})

	lastEnd := map[int]float64{}
	for _, rs := range roundSpans {
		checkRound(rep, rs, estsByParent[rs.Span], cfg, inWindow)
		// Rounds of one node must not overlap: the spec keeps at most one
		// round open per node (SendEstimate requires Idle).
		if prev, ok := lastEnd[rs.Node]; ok && rs.At < prev-timeTol {
			rep.add(rs, "SendEstimate", fmt.Sprintf(
				"round opened at %.6f while the previous round was still open until %.6f", rs.At, prev))
		}
		if end := rs.At + rs.Duration(); end > lastEnd[rs.Node] {
			lastEnd[rs.Node] = end
		}
	}
	return rep, nil
}

func (r *Report) add(rs obs.Event, action, detail string) {
	r.Violations = append(r.Violations, Violation{
		At: rs.At, Node: rs.Node, Round: rs.Span, Action: action, Detail: detail,
	})
}

// checkRound replays one recorded round span (plus its child estimate
// spans) through the spec: the resolved estimate set must justify the
// recorded skip/adjust decision and the exact adjustment value.
func checkRound(rep *Report, rs obs.Event, estSpans []obs.Event, cfg Config, inWindow func(int, float64, float64) bool) {
	end := rs.At + rs.Duration()
	if inWindow(rs.Node, rs.At, end) {
		rep.add(rs, "SendEstimate", "round executed while the node was corrupted (spec suspends corrupted nodes)")
	}

	// Group estimate spans by peer. The live path retries within a round,
	// so a peer may have several attempt spans: it answered iff any
	// attempt carries ok=1 (the protocol uses the first answer; all
	// attempts measure the same exchange).
	timeTol := math.Max(cfg.Tol, 1e-5)
	byPeer := map[int]estimate{}
	var peers []int
	for _, es := range estSpans {
		peer := int(es.Field("peer"))
		cur, seen := byPeer[peer]
		if esEnd := es.At + es.Duration(); esEnd > end+timeTol || es.At < rs.At-timeTol {
			rep.add(rs, "ReceiveReply", fmt.Sprintf(
				"estimate of p%d resolved at %.6f, outside its round [%.6f, %.6f]", peer, esEnd, rs.At, end))
		}
		if es.Field("ok") == 1 {
			if !cur.ok || !seen {
				byPeer[peer] = estimate{peer: peer, d: es.Field("d"), a: es.Field("a"), ok: true}
			}
		} else if !seen {
			byPeer[peer] = estimate{peer: peer, ok: false}
		}
		if !seen {
			peers = append(peers, peer)
		}
	}
	sort.Ints(peers)
	ests := make([]estimate, 0, len(peers)+1)
	for _, p := range peers {
		ests = append(ests, byPeer[p])
	}
	// Figure 1 ranges over all of {1..n} including p itself; the protocol
	// appends the exact self-estimate (0, 0) without recording a span.
	ests = append(ests, estimate{peer: rs.Node, d: 0, a: 0, ok: true})
	rep.Stats.Estimates += len(peers)

	m, M := math.Inf(1), math.Inf(-1)
	if len(ests) > cfg.F {
		m, M = extremes(cfg.F, ests)
	}
	mustSkip := specSkip(cfg.F, ests, m, M)

	_, skipped := rs.Fields["skip"]
	if skipped {
		rep.Stats.Skips++
		if !mustSkip {
			rep.add(rs, "SkipRound", fmt.Sprintf(
				"round skipped but the spec requires ComputeAdjust (%d readings, m=%.6g M=%.6g)", len(ests), m, M))
		}
		return
	}

	delta, haveDelta := rs.Fields["delta"]
	if !haveDelta {
		rep.add(rs, "ComputeAdjust", "round span carries neither skip nor delta")
		return
	}
	rep.Stats.Rounds++
	if mustSkip {
		live := 0
		for _, e := range ests {
			if e.ok {
				live++
			}
		}
		rep.add(rs, "ComputeAdjust", fmt.Sprintf(
			"adjustment %.6g applied but the spec requires SkipRound (%d readings, %d live, need 2f+1=%d with f+1=%d live)",
			delta, len(ests), live, 2*cfg.F+1, cfg.F+1))
		return
	}

	// Which branch does the spec allow? With a known WayOff the recorded
	// extremes decide (up to tolerance at the boundary); without one, or
	// exactly at the boundary, either formula is acceptable. A recorded
	// wayoff flag (the simulator emits one) must agree with an allowed
	// branch.
	normal, jump := normalDelta(m, M), jumpDelta(m, M)
	allowNormal, allowJump := true, true
	if cfg.WayOff > 0 {
		w := cfg.WayOff
		allowNormal = m >= -w-cfg.Tol && M <= w+cfg.Tol
		allowJump = m < -w+cfg.Tol || M > w-cfg.Tol
	}
	if flag, ok := rs.Fields["wayoff"]; ok {
		if flag == 0 && !allowNormal {
			rep.add(rs, "ComputeAdjust", fmt.Sprintf(
				"normal branch recorded but extremes m=%.6g M=%.6g are beyond WayOff=%.6g", m, M, cfg.WayOff))
			return
		}
		if flag == 1 && !allowJump {
			rep.add(rs, "ComputeAdjust", fmt.Sprintf(
				"WayOff branch recorded but extremes m=%.6g M=%.6g are within WayOff=%.6g", m, M, cfg.WayOff))
			return
		}
		allowNormal = allowNormal && flag == 0
		allowJump = allowJump && flag == 1
	}
	okDelta := (allowNormal && math.Abs(delta-normal) <= cfg.Tol) ||
		(allowJump && math.Abs(delta-jump) <= cfg.Tol)
	if !okDelta {
		want := fmt.Sprintf("%.6g (normal) or %.6g (jump)", normal, jump)
		switch {
		case allowNormal && !allowJump:
			want = fmt.Sprintf("%.6g (normal branch)", normal)
		case allowJump && !allowNormal:
			want = fmt.Sprintf("%.6g (WayOff branch)", jump)
		}
		rep.add(rs, "ApplyAdjust", fmt.Sprintf(
			"recorded delta %.6g does not match the spec's %s from m=%.6g M=%.6g over %d readings",
			delta, want, m, M, len(ests)))
	}
}
