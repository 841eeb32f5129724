package conformance

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/core"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
	"clocksync/internal/trace"
)

// span builds one span record, as trace.Read decodes it from a JSONL line.
func span(id, parent uint64, name string, node int, at, dur float64, fields map[string]float64) obs.Event {
	return obs.Event{
		At: at, Kind: obs.KindSpan, Node: node,
		Name: name, Span: id, Parent: parent, Dur: &dur, Fields: fields,
	}
}

// round builds a complete synthetic round: the round span plus one estimate
// span per entry of ests (d, a, ok). Span ids start at base.
func round(base uint64, node int, at, dur float64, roundFields map[string]float64, ests []estimate) []obs.Event {
	evs := []obs.Event{span(base, 0, "round", node, at, dur, roundFields)}
	for i, e := range ests {
		f := map[string]float64{"peer": float64(e.peer)}
		if e.ok {
			f["d"], f["a"], f["ok"] = e.d, e.a, 1
		} else {
			f["ok"], f["timeout"] = 0, 1
		}
		evs = append(evs, span(base+1+uint64(i), base, "estimate", node, at, dur/2, f))
	}
	return evs
}

func mustCheck(t *testing.T, evs []obs.Event, cfg Config) *Report {
	t.Helper()
	rep, err := Check(evs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// wantViolation asserts exactly one violation with the given spec action.
func wantViolation(t *testing.T, rep *Report, action string) Violation {
	t.Helper()
	if len(rep.Violations) != 1 {
		t.Fatalf("want exactly one %s violation, got %d: %v", action, len(rep.Violations), rep.Violations)
	}
	if v := rep.Violations[0]; v.Action != action {
		t.Fatalf("violation action = %q, want %q: %s", v.Action, action, v.String())
	}
	return rep.Violations[0]
}

// TestCheckCleanRound: a faithful Figure 1 round refines the spec. Two live
// peers at f=1: overs {3, 5, 0(self)} → m = 3, unders {1, 3, 0} → M = 1,
// delta = (min(3,0)+max(1,0))/2 = 0.5.
func TestCheckCleanRound(t *testing.T) {
	evs := round(1, 0, 10, 1, map[string]float64{"delta": 0.5, "wayoff": 0}, []estimate{
		{peer: 1, d: 2, a: 1, ok: true},
		{peer: 2, d: 4, a: 1, ok: true},
	})
	rep := mustCheck(t, evs, Config{F: 1, WayOff: 100})
	if !rep.Ok() {
		t.Fatalf("clean round flagged: %v", rep.Violations)
	}
	if rep.Stats.Rounds != 1 || rep.Stats.Estimates != 2 {
		t.Errorf("stats = %+v", rep.Stats)
	}
}

// TestCheckTimeoutIsInfinite: a timed-out peer must contribute ±∞ exactly as
// Figure 1 prescribes. Peer 1 at d=2±1, peer 2 lost: m = 3 (the +∞ over is
// trimmed last), M = 0 (self), delta = 0.
func TestCheckTimeoutIsInfinite(t *testing.T) {
	evs := round(1, 0, 10, 1, map[string]float64{"delta": 0, "wayoff": 0}, []estimate{
		{peer: 1, d: 2, a: 1, ok: true},
		{peer: 2, ok: false},
	})
	if rep := mustCheck(t, evs, Config{F: 1, WayOff: 100}); !rep.Ok() {
		t.Fatalf("timeout round flagged: %v", rep.Violations)
	}
	// The same readings with the live peer's midpoint instead of the spec's
	// trimmed value must be rejected.
	evs = round(1, 0, 10, 1, map[string]float64{"delta": 2, "wayoff": 0}, []estimate{
		{peer: 1, d: 2, a: 1, ok: true},
		{peer: 2, ok: false},
	})
	wantViolation(t, mustCheck(t, evs, Config{F: 1, WayOff: 100}), "ApplyAdjust")
}

// TestCheckClampDropped: the acceptance-criteria mutation — an adjustment
// computed without the midpoint clamp (plain (m+M)/2 = 2 instead of the
// clamped 0.5) must be flagged at the offending transition.
func TestCheckClampDropped(t *testing.T) {
	evs := round(1, 0, 10, 1, map[string]float64{"delta": 2, "wayoff": 0}, []estimate{
		{peer: 1, d: 2, a: 1, ok: true},
		{peer: 2, d: 4, a: 1, ok: true},
	})
	v := wantViolation(t, mustCheck(t, evs, Config{F: 1, WayOff: 100}), "ApplyAdjust")
	if v.Node != 0 || v.Round != 1 {
		t.Errorf("violation should identify node 0 round span 1: %s", v.String())
	}
}

// TestCheckSkipRequired: adjusting on fewer than 2f+1 readings (one peer
// span + self = 2 < 3) violates the quorum guard.
func TestCheckSkipRequired(t *testing.T) {
	evs := round(1, 0, 10, 1, map[string]float64{"delta": 0, "wayoff": 0}, []estimate{
		{peer: 1, d: 2, a: 1, ok: true},
	})
	wantViolation(t, mustCheck(t, evs, Config{F: 1, WayOff: 100}), "ComputeAdjust")
}

// TestCheckSkipNotAllowed: skipping a round the spec requires to adjust
// (full quorum, finite extremes) is the dual violation.
func TestCheckSkipNotAllowed(t *testing.T) {
	evs := round(1, 0, 10, 1, map[string]float64{"skip": 1}, []estimate{
		{peer: 1, d: 2, a: 1, ok: true},
		{peer: 2, d: 4, a: 1, ok: true},
	})
	wantViolation(t, mustCheck(t, evs, Config{F: 1, WayOff: 100}), "SkipRound")

	// A justified skip — both extremes infinite after trimming — is clean.
	evs = round(1, 0, 10, 1, map[string]float64{"skip": 1}, []estimate{
		{peer: 1, ok: false},
		{peer: 2, ok: false},
	})
	if rep := mustCheck(t, evs, Config{F: 1, WayOff: 100}); !rep.Ok() {
		t.Fatalf("justified skip flagged: %v", rep.Violations)
	}
}

// TestCheckWayOffBranch: the recorded branch flag must agree with the
// extremes. M = 30 beyond WayOff=20 forces the jump branch.
func TestCheckWayOffBranch(t *testing.T) {
	ests := []estimate{
		{peer: 1, d: 29, a: 1, ok: true}, // over 30, under 28
		{peer: 2, d: 31, a: 1, ok: true}, // over 32, under 30
	}
	// m = 30, M = 28 → jump delta (30+28)/2 = 29, recorded faithfully.
	evs := round(1, 0, 10, 1, map[string]float64{"delta": 29, "wayoff": 1}, ests)
	if rep := mustCheck(t, evs, Config{F: 1, WayOff: 20}); !rep.Ok() {
		t.Fatalf("faithful jump flagged: %v", rep.Violations)
	}
	// Claiming the normal branch out there is a divergence.
	evs = round(1, 0, 10, 1, map[string]float64{"delta": 14, "wayoff": 0}, ests)
	wantViolation(t, mustCheck(t, evs, Config{F: 1, WayOff: 20}), "ComputeAdjust")
	// And claiming the jump branch while converged is the reverse one.
	evs = round(1, 0, 10, 1, map[string]float64{"delta": 0.5, "wayoff": 1}, []estimate{
		{peer: 1, d: 2, a: 1, ok: true},
		{peer: 2, d: 4, a: 1, ok: true},
	})
	wantViolation(t, mustCheck(t, evs, Config{F: 1, WayOff: 20}), "ComputeAdjust")
}

// TestCheckLivenetRetries: the live path emits one estimate span per retry
// attempt; the peer answered iff any attempt carries ok=1, and the checker
// must not double-count the peer.
func TestCheckLivenetRetries(t *testing.T) {
	evs := round(1, 0, 10, 1, map[string]float64{"delta": 0.5, "wayoff": 0}, []estimate{
		{peer: 1, d: 2, a: 1, ok: true},
		{peer: 2, d: 4, a: 1, ok: true},
	})
	// A failed first attempt at peer 1, before the successful one.
	retry := span(9, 1, "estimate", 0, 10.1, 0.1, map[string]float64{"peer": 1, "ok": 0, "timeout": 1})
	evs = append(evs, retry)
	rep := mustCheck(t, evs, Config{F: 1, WayOff: 100})
	if !rep.Ok() {
		t.Fatalf("retried round flagged: %v", rep.Violations)
	}
	if rep.Stats.Estimates != 2 {
		t.Errorf("retries double-counted: %d estimates", rep.Stats.Estimates)
	}
}

// TestCheckCorruptionWindow: a round executed inside the node's corruption
// window violates the spec (corrupted processors take no protocol actions);
// the same round outside the window is clean.
func TestCheckCorruptionWindow(t *testing.T) {
	mk := func(at float64) []obs.Event {
		evs := round(1, 0, at, 1, map[string]float64{"delta": 0.5, "wayoff": 0}, []estimate{
			{peer: 1, d: 2, a: 1, ok: true},
			{peer: 2, d: 4, a: 1, ok: true},
		})
		// Break-in records arrive out of order, after the rounds — as a
		// stream merged from several nodes delivers them.
		return append(evs,
			obs.Event{At: 20, Kind: obs.KindRelease, Node: 0},
			obs.Event{At: 5, Kind: obs.KindCorrupt, Node: 0},
		)
	}
	v := wantViolation(t, mustCheck(t, mk(10), Config{F: 1, WayOff: 100}), "SendEstimate")
	if v.Round != 1 {
		t.Errorf("violation should name the round span: %s", v.String())
	}
	if rep := mustCheck(t, mk(30), Config{F: 1, WayOff: 100}); !rep.Ok() {
		t.Fatalf("post-release round flagged: %v", rep.Violations)
	}
	if rep := mustCheck(t, mk(30), Config{F: 1, WayOff: 100}); rep.Stats.Corruptions != 1 {
		t.Errorf("corruption window not counted")
	}
}

// TestCheckOverlappingRounds: one node keeping two rounds open at once has
// no spec image (SendEstimate requires Idle).
func TestCheckOverlappingRounds(t *testing.T) {
	ests := []estimate{
		{peer: 1, d: 2, a: 1, ok: true},
		{peer: 2, d: 4, a: 1, ok: true},
	}
	evs := round(1, 0, 10, 5, map[string]float64{"delta": 0.5, "wayoff": 0}, ests)
	evs = append(evs, round(10, 0, 12, 5, map[string]float64{"delta": 0.5, "wayoff": 0}, ests)...)
	wantViolation(t, mustCheck(t, evs, Config{F: 1, WayOff: 100}), "SendEstimate")
}

// TestCheckEventMode: a stream with round events but no round spans cannot
// be replayed, and Check says so instead of passing a weaker structural check
// — the clamp-violating delta below used to be the only thing event mode
// could still see.
func TestCheckEventMode(t *testing.T) {
	evs := []obs.Event{
		{At: 10, Kind: "round", Node: 0, Fields: map[string]float64{"delta": 3, "wayoff": 0}},
		{At: 20, Kind: "round", Node: 1, Fields: map[string]float64{"delta": 60, "wayoff": 0}},
	}
	for _, in := range [][]obs.Event{evs, nil} {
		if rep, err := Check(in, Config{F: 1, WayOff: 100}); !errors.Is(err, ErrNoRoundSpans) {
			t.Errorf("%d span-less records: report %+v, err %v; want ErrNoRoundSpans", len(in), rep, err)
		}
	}
}

// TestExtremes pins the spec's order statistics against hand values.
func TestExtremes(t *testing.T) {
	ests := []estimate{
		{peer: 0, d: 0, a: 0, ok: true},
		{peer: 1, d: 2, a: 1, ok: true},
		{peer: 2, ok: false},
	}
	if m, M := extremes(1, ests); m != 3 || M != 0 {
		t.Errorf("extremes = %v, %v; want 3, 0", m, M)
	}
	// With f=0 the infinite readings sit at the untrimmed ends and never
	// reach the extremes — the exact failure mode mc's NoTrim mutation
	// demonstrates (the skip guard loses its teeth).
	if m, M := extremes(0, ests); m != 0 || M != 1 {
		t.Errorf("untrimmed extremes = %v, %v; want 0, 1", m, M)
	}
	// With f=2 the trim depth exceeds the live readings and both extremes go
	// infinite, forcing the skip.
	if m, M := extremes(2, ests); !math.IsInf(m, 1) || !math.IsInf(M, -1) {
		t.Errorf("over-trimmed extremes must be infinite: %v, %v", m, M)
	}
}

// simScenario is a short adversarial simulation with the collector attached
// as both event and span sink.
func simScenario(col *Collector) scenario.Scenario {
	s := scenario.Scenario{
		Name:       "conformance",
		Seed:       11,
		N:          5,
		F:          1,
		Duration:   6 * simtime.Minute,
		Theta:      3 * simtime.Minute,
		Rho:        1e-4,
		InitSpread: 200 * simtime.Millisecond,
	}
	s.Adversary = adversary.Rotate(s.N, s.F, simtime.Time(1*simtime.Minute),
		20*simtime.Second, s.Theta, 2,
		func(int) protocol.Behavior { return adversary.Crash{} })
	s.EventSink = col
	s.SpanSink = col
	return s
}

// TestCheckSimRun: a faithful simulated run — crash corruptions included —
// refines the spec, and the replay demonstrably covered rounds, estimates
// and corruption windows.
func TestCheckSimRun(t *testing.T) {
	col := &Collector{}
	s := simScenario(col)
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustCheck(t, col.Events(), Config{F: s.F, WayOff: float64(res.Scenario.WayOff)})
	t.Log(rep.Summary())
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("refinement violation: %s", v.String())
		}
	}
	if rep.Stats.Rounds == 0 || rep.Stats.Estimates == 0 {
		t.Fatalf("replay covered nothing: %+v", rep.Stats)
	}
	if rep.Stats.Corruptions == 0 {
		t.Fatalf("expected span-mode replay over a corrupted run: %+v", rep.Stats)
	}
}

// TestCheckMutatedSimRun: the bridge's teeth — a deliberately mutated
// implementation (WayOff threshold collapsed to 1 ms, so nodes take the
// recovery jump while the declared configuration says they converged) must
// fail refinement with the offending transition identified.
func TestCheckMutatedSimRun(t *testing.T) {
	col := &Collector{}
	s := simScenario(col)
	s.Builder = scenario.SyncBuilder(func(cfg *core.Config, _ scenario.BuildContext) {
		cfg.WayOff = simtime.Millisecond
	})
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustCheck(t, col.Events(), Config{F: s.F, WayOff: float64(res.Scenario.WayOff)})
	t.Log(rep.Summary())
	if rep.Ok() {
		t.Fatal("mutated implementation passed refinement")
	}
	v := rep.Violations[0]
	if v.Action != "ComputeAdjust" {
		t.Errorf("expected the branch divergence at ComputeAdjust, got: %s", v.String())
	}
	if v.Round == 0 {
		t.Errorf("violation must identify the offending round span: %s", v.String())
	}
}

// TestCollectorRoundTrip: the collector's in-process stream matches what
// trace.Read would produce from the JSONL encoding of the same run — the
// contract that lets campaign runs skip the file round-trip.
func TestCollectorRoundTrip(t *testing.T) {
	col := &Collector{}
	s := simScenario(col)
	if _, err := scenario.Run(s); err != nil {
		t.Fatal(err)
	}
	evs := col.Events()
	if len(evs) == 0 {
		t.Fatal("collector captured nothing")
	}
	col.Reset()
	if len(col.Events()) != 0 {
		t.Fatal("Reset did not clear the collector")
	}
	spans := 0
	for _, e := range evs {
		if e.Kind == obs.KindSpan {
			spans++
			if e.Name == "" || e.Span == 0 {
				t.Fatalf("span event missing name or id: %+v", e)
			}
		}
	}
	if spans == 0 {
		t.Fatal("collector captured no spans")
	}
}

// TestCollectorMatchesJSONLRoundTrip: one run, recorded twice — in memory by
// the Collector and as JSON lines read back with trace.Read — yields
// identical records in identical order, and so the identical refinement
// report. That equality is what makes `synccampaign -conform` (Collector) and
// `tracestat -conform` (file) one check.
func TestCollectorMatchesJSONLRoundTrip(t *testing.T) {
	col := &Collector{}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	s := simScenario(col)
	s.Observer = obs.NewObserver(sink)
	s.Observer.AddSpanSink(sink)
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	fromFile, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	inMemory := col.Events()
	if len(inMemory) != len(fromFile) {
		t.Fatalf("collector holds %d records, the file %d", len(inMemory), len(fromFile))
	}
	for i := range inMemory {
		if !reflect.DeepEqual(inMemory[i], fromFile[i]) {
			t.Fatalf("record %d differs:\n collector %+v\n file      %+v", i, inMemory[i], fromFile[i])
		}
	}
	cfg := Config{F: s.F, WayOff: float64(res.Scenario.WayOff)}
	if a, b := mustCheck(t, inMemory, cfg), mustCheck(t, fromFile, cfg); !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ:\n collector %+v\n file      %+v", a, b)
	}
}
