package clocksync_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"clocksync"
)

func smallScenario() clocksync.Scenario {
	return clocksync.Scenario{
		Name:       "api",
		Seed:       7,
		N:          4,
		F:          1,
		Duration:   5 * clocksync.Minute,
		Theta:      2 * clocksync.Minute,
		Rho:        1e-4,
		InitSpread: 200 * clocksync.Millisecond,
	}
}

// TestRunScenarioOptions exercises the functional-option surface: observers
// and sinks attach per call, and the caller's Scenario value is not
// mutated.
func TestRunScenarioOptions(t *testing.T) {
	s := smallScenario()
	ring := clocksync.NewRing(1024)
	var jsonl bytes.Buffer
	res, err := clocksync.RunScenario(s,
		clocksync.WithObserver(clocksync.NewObserver(ring)),
		clocksync.WithEventSink(clocksync.NewJSONLSink(&jsonl)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Observer != nil || s.EventSink != nil {
		t.Error("RunScenario options mutated the caller's Scenario")
	}
	if res.EventCounts[clocksync.EventRound] == 0 {
		t.Errorf("no round events tallied: %v", res.EventCounts)
	}
	sawRound := false
	for _, e := range ring.Events() {
		if e.Kind == clocksync.EventRound {
			sawRound = true
			break
		}
	}
	if !sawRound {
		t.Error("observer ring captured no round events")
	}
	if !strings.Contains(jsonl.String(), `"kind":"round"`) {
		t.Error("JSONL sink received no round events")
	}
}

// TestRunScenarioScaleOptions exercises the scaling surface: WithShards runs
// the scenario on the sharded event queue and WithPeerSampling switches to
// sparse estimation, without mutating the caller's Scenario — and the
// sharded run's report matches the one-shard reference exactly (the
// shard-count determinism contract, exposed through the public API).
func TestRunScenarioScaleOptions(t *testing.T) {
	s := smallScenario()
	s.N, s.F = 16, 2

	serial, err := clocksync.RunScenario(s, clocksync.WithPeerSampling(7))
	if err != nil {
		t.Fatal(err)
	}
	if s.SamplePeers != 0 || s.Shards != 0 {
		t.Error("RunScenario options mutated the caller's Scenario")
	}

	full, err := clocksync.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if serial.MsgsSent >= full.MsgsSent {
		t.Errorf("sampling did not cut traffic: %d sampled vs %d full msgs",
			serial.MsgsSent, full.MsgsSent)
	}

	// An unsafe subset size must surface as an error, not a panic: with
	// k < 2f+1 the convergence function could not trim f faulty readings
	// from both sides.
	if _, err := clocksync.RunScenario(s, clocksync.WithPeerSampling(3)); err == nil {
		t.Error("RunScenario accepted SamplePeers 3 < 2f+1 = 5")
	}

	// WithShards(1) is the sharded engine's one-shard reference; any shard
	// count must produce identical observables.
	ref, err := clocksync.RunScenario(s, clocksync.WithPeerSampling(7), clocksync.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := clocksync.RunScenario(s, clocksync.WithPeerSampling(7), clocksync.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Report.MaxDeviation != sharded.Report.MaxDeviation || ref.MsgsSent != sharded.MsgsSent {
		t.Errorf("shard counts disagree: dev %v/%v, msgs %d/%d",
			ref.Report.MaxDeviation, sharded.Report.MaxDeviation, ref.MsgsSent, sharded.MsgsSent)
	}
}

// TestRunScenarioWithSpanSink exercises the causal-tracing surface: a run
// with a span sink produces a round span tree whose estimate and adjust
// spans parent back to round spans, and quantiles come out of the shared
// histogram layout.
func TestRunScenarioWithSpanSink(t *testing.T) {
	s := smallScenario()
	ring := clocksync.NewSpanRing(10_000)
	res, err := clocksync.RunScenario(s, clocksync.WithSpanSink(ring))
	if err != nil {
		t.Fatal(err)
	}
	if s.SpanSink != nil {
		t.Error("WithSpanSink mutated the caller's Scenario")
	}
	rounds := map[clocksync.SpanID]bool{}
	byName := map[string]int{}
	for _, sp := range ring.Spans() {
		byName[sp.Name]++
		if sp.Name == clocksync.SpanRound {
			rounds[sp.ID] = true
		}
	}
	for _, name := range []string{
		clocksync.SpanRound, clocksync.SpanEstimate,
		clocksync.SpanReading, clocksync.SpanAdjust,
	} {
		if byName[name] == 0 {
			t.Errorf("no %q spans captured: %v", name, byName)
		}
	}
	for _, sp := range ring.Spans() {
		if (sp.Name == clocksync.SpanEstimate || sp.Name == clocksync.SpanAdjust) && !rounds[sp.Parent] {
			t.Fatalf("%s span %d has parent %d which is not a round span", sp.Name, sp.ID, sp.Parent)
		}
	}
	if res.Obs == nil {
		t.Fatal("no observer created for SpanSink")
	}
	if res.Obs.Recorder().RTT.Count() == 0 {
		t.Error("RTT histogram empty after traced run")
	}
	if b := clocksync.HistogramBounds(); len(b) == 0 {
		t.Error("HistogramBounds empty")
	}
}

// TestRunScenarioWithTrace records a run the one way there is: a JSONL sink
// on the event side, one JSON object per line, round events among them.
func TestRunScenarioWithTrace(t *testing.T) {
	var buf bytes.Buffer
	sink := clocksync.NewJSONLSink(&buf)
	if _, err := clocksync.RunScenario(smallScenario(), clocksync.WithEventSink(sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var e clocksync.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if e.Kind == clocksync.EventRound {
			rounds++
		}
	}
	if rounds == 0 {
		t.Error("recorded stream has no round events")
	}
}

// TestSweepExported checks the package-level Sweep and WorstDeviation.
func TestSweepExported(t *testing.T) {
	mk := func(int64) clocksync.Scenario {
		s := smallScenario()
		s.Duration = 2 * clocksync.Minute
		return s
	}
	results, err := clocksync.Sweep(mk, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if worst := clocksync.WorstDeviation(results); worst == nil {
		t.Fatal("WorstDeviation returned nil for a successful sweep")
	}
}

// TestRunScenarioWithCheck checks the invariant-checker option: an honest
// small run must report zero violations, and Violations must be non-nil so
// callers can distinguish "checked and clean" from "not checked".
func TestRunScenarioWithCheck(t *testing.T) {
	s := smallScenario()
	res, err := clocksync.RunScenario(s, clocksync.WithCheck())
	if err != nil {
		t.Fatal(err)
	}
	if s.Check {
		t.Error("WithCheck mutated the caller's Scenario")
	}
	for _, v := range res.Violations {
		t.Errorf("honest run violated %s: %s", v.Invariant, v)
	}
}

// TestRunCampaignExported checks the campaign surface end to end: a small
// honest campaign completes clean, and the exported invariant names match
// what violations would carry.
func TestRunCampaignExported(t *testing.T) {
	res, err := clocksync.RunCampaign(clocksync.CampaignConfig{
		Runs: 4, Seed: 1, Duration: 10 * clocksync.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed %d of 4 runs", res.Completed)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("honest campaign failed: %+v", res.Failures[0].Violations)
	}
	for _, name := range []string{
		clocksync.InvariantDeviation, clocksync.InvariantStep,
		clocksync.InvariantAccuracy, clocksync.InvariantRecovery,
	} {
		if name == "" {
			t.Error("empty invariant name in the public API")
		}
	}
}
