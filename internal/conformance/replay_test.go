package conformance

import (
	"math"
	"testing"

	"clocksync/internal/core"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// replayRounds re-feeds every recorded round of a stream into a fresh round
// machine — nothing but the (peer, d, a, ok) its estimate spans carry — and
// requires the machine to decide exactly what was recorded: delta and branch
// bit-equal to the round span, the failure count equal to the round event's.
// A driver that let any of its own state (clocks, health, retries, caches)
// into the decision would diverge here. It returns the rounds replayed.
func replayRounds(t *testing.T, events []obs.Event, f int, wayOff float64) int {
	t.Helper()
	ests := map[uint64]map[int]protocol.Estimate{} // round span → peer → estimate
	var rounds []obs.Event
	verdicts := map[int][]obs.Event{} // node → its round and skip events, in order
	for _, e := range events {
		switch {
		case e.Kind == obs.KindSpan && e.Name == "round":
			rounds = append(rounds, e)
		case e.Kind == obs.KindSpan && e.Name == "estimate":
			peer := int(e.Field("peer"))
			if ests[e.Parent] == nil {
				ests[e.Parent] = map[int]protocol.Estimate{}
			}
			// The live driver records one span per attempt; the machine took
			// the first answer, and an answered peer has exactly one ok span.
			if e.Field("ok") == 1 {
				ests[e.Parent][peer] = protocol.Estimate{
					Peer: peer, D: simtime.Duration(e.Field("d")), A: simtime.Duration(e.Field("a")), OK: true}
			} else if _, seen := ests[e.Parent][peer]; !seen {
				ests[e.Parent][peer] = protocol.FailedEstimate(peer)
			}
		case e.Kind == "round" || e.Kind == "skip":
			verdicts[e.Node] = append(verdicts[e.Node], e)
		}
	}
	for _, rs := range rounds {
		// Each node's round spans and round/skip events are emitted pairwise,
		// in order.
		if len(verdicts[rs.Node]) == 0 {
			t.Fatalf("round span %d of node %d has no round event", rs.Span, rs.Node)
		}
		ev := verdicts[rs.Node][0]
		verdicts[rs.Node] = verdicts[rs.Node][1:]

		var vector []protocol.Estimate
		for _, e := range ests[rs.Span] {
			vector = append(vector, e)
		}
		out := core.NewRound(rs.Node, f, simtime.Duration(wayOff)).Decide(vector)
		_, skipped := rs.Fields["skip"]
		if out.OK == skipped || (ev.Kind == "skip") != skipped {
			t.Fatalf("round span %d of node %d: recorded skip=%v (event %q), replay decided ok=%v",
				rs.Span, rs.Node, skipped, ev.Kind, out.OK)
		}
		if skipped {
			continue
		}
		if math.Float64bits(float64(out.Delta)) != math.Float64bits(rs.Field("delta")) ||
			out.Jumped != (rs.Field("wayoff") == 1) || float64(out.Failed) != ev.Field("failed") {
			t.Fatalf("round span %d of node %d: recorded delta=%v wayoff=%v failed=%v, replay decided %+v",
				rs.Span, rs.Node, rs.Field("delta"), rs.Field("wayoff"), ev.Field("failed"), out)
		}
		if ev.Field("delta") != rs.Field("delta") || ev.Field("wayoff") != rs.Field("wayoff") {
			t.Fatalf("round span %d and its round event disagree: %+v vs %+v", rs.Span, rs.Fields, ev.Fields)
		}
	}
	return len(rounds)
}

// TestReplayRecordedRoundsSim: one seeded simulator run, crash corruptions
// included, replays bit-equal through a fresh machine.
func TestReplayRecordedRoundsSim(t *testing.T) {
	col := &Collector{}
	s := simScenario(col)
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := replayRounds(t, col.Events(), s.F, float64(res.Scenario.WayOff)); n == 0 {
		t.Fatal("no rounds recorded")
	}
}

// TestReplayRecordedRoundsLive: the same for one RunChaos run over
// MemNetwork — retries, dark peers, a scrambled crash window and packet
// chaos are all driver business and must leave no trace in the decision.
func TestReplayRecordedRoundsLive(t *testing.T) {
	col, wayOff := chaosRun(t)
	if n := replayRounds(t, col.Events(), 1, wayOff); n == 0 {
		t.Fatal("no rounds recorded")
	}
}
