package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"clocksync/internal/obs"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
	"clocksync/internal/trace"
)

// TestRoundTrip writes one record of every shape through the stream's one
// encoder (obs.JSONL) and reads it back: each must decode to an equal record
// — a zero-duration span keeps its duration, a span without fields gains
// none, and a legacy adjust record keeps its top-level delta.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	want := []obs.Event{
		{At: 1.5, Kind: obs.KindRound, Node: 2, Fields: map[string]float64{"delta": -0.25, "failed": 0, "wayoff": 0}},
		{At: 2, Kind: obs.KindCorrupt, Node: 3},
		{At: 5, Kind: obs.KindRelease, Node: 3},
		{At: 6, Kind: obs.KindSample, Biases: []float64{0.1, -0.1}, Deviation: 0.2},
		obs.SpanEvent(obs.Span{ID: 7, Parent: 6, Name: obs.SpanReading, Node: 1, Start: 6.5, End: 6.5,
			Fields: obs.F("peer", 0).F("accepted", 1)}),
		obs.SpanEvent(obs.Span{ID: 8, Name: obs.SpanQuery, Start: 7, End: 7.25}),
		{At: 8, Kind: obs.KindAdjust, Node: 2, Delta: -0.25},
	}
	for _, e := range want {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"reading","span":7,"parent":6,"dur":0,`) {
		t.Errorf("zero-duration span lost its dur:\n%s", buf.String())
	}

	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", got, want)
	}
	for _, i := range []int{0, 6} { // the round event and the legacy adjust line
		if d, ok := got[i].Adjustment(); !ok || d != -0.25 {
			t.Errorf("record %d: Adjustment() = %v, %v; want -0.25, true", i, d, ok)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read(strings.NewReader("{\"kind\":\"note\"}\nnot json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	events, err := trace.Read(strings.NewReader("\n{\"kind\":\"note\",\"text\":\"x\"}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events", len(events))
	}
}

func TestScenarioEmitsTrace(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	s := scenario.Scenario{
		Name:         "trace-test",
		Seed:         3,
		N:            4,
		F:            1,
		Duration:     2 * simtime.Minute,
		Theta:        100 * simtime.Second,
		Rho:          1e-4,
		InitSpread:   50 * simtime.Millisecond,
		SamplePeriod: 10 * simtime.Second,
		EventSink:    sink,
	}
	if _, err := scenario.Run(s); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var adjusts, samples int
	for _, e := range events {
		if _, ok := e.Adjustment(); ok {
			adjusts++
		}
		if e.Kind == obs.KindSample {
			samples++
			if len(e.Biases) != 4 {
				t.Fatalf("sample with %d biases", len(e.Biases))
			}
		}
	}
	if adjusts == 0 || samples == 0 {
		t.Fatalf("trace missing events: %d adjusts, %d samples", adjusts, samples)
	}
}
