package trace_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
	"clocksync/internal/trace"
)

func TestSummarizeEmpty(t *testing.T) {
	s := trace.Summarize(nil)
	if s.Events != 0 || s.Nodes != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	if out := s.String(); out == "" {
		t.Fatal("String must render even for empty traces")
	}
}

func TestSummarizeHandBuilt(t *testing.T) {
	events := []obs.Event{
		{At: 0, Kind: obs.KindSample, Biases: []float64{0, 0.1, 0.2}, Deviation: 0.2},
		{At: 1, Kind: obs.KindAdjust, Node: 1, Delta: -0.05},
		{At: 2, Kind: obs.KindCorrupt, Node: 2},
		{At: 3, Kind: obs.KindAdjust, Node: 0, Delta: 0.1},
		{At: 7, Kind: obs.KindRelease, Node: 2},
		{At: 8, Kind: obs.KindCorrupt, Node: 0}, // never released
		{At: 10, Kind: obs.KindSample, Biases: []float64{0, 0, 0}, Deviation: 0.05},
	}
	s := trace.Summarize(events)
	if s.Events != 7 || s.Nodes != 3 || s.Span != 10 {
		t.Fatalf("header: %+v", s)
	}
	if s.Adjusts != 2 || math.Abs(s.AdjustAbs.Max-0.1) > 1e-12 {
		t.Fatalf("adjusts: %+v", s.AdjustAbs)
	}
	if s.Samples != 2 || math.Abs(s.Deviation.Max-0.2) > 1e-12 {
		t.Fatalf("deviation: %+v", s.Deviation)
	}
	if len(s.Corruptions) != 2 {
		t.Fatalf("corruptions: %+v", s.Corruptions)
	}
	first := s.Corruptions[0]
	if first.Node != 2 || first.From != 2 || first.To != 7 || first.Open {
		t.Fatalf("first corruption: %+v", first)
	}
	second := s.Corruptions[1]
	if second.Node != 0 || !second.Open || second.To != 10 {
		t.Fatalf("open corruption: %+v", second)
	}
	if s.PerNode[2].TimeFaulty != 5 || s.PerNode[2].Corrupted != 1 {
		t.Fatalf("per-node fault time: %+v", s.PerNode[2])
	}
	if s.PerNode[1].Adjusts != 1 || math.Abs(s.PerNode[1].MaxAdjust-0.05) > 1e-12 {
		t.Fatalf("per-node adjusts: %+v", s.PerNode[1])
	}
	out := s.String()
	for _, want := range []string{"3 nodes", "corruptions: 2", "never released", "node  2"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeReleaseWithoutCorruptIgnored(t *testing.T) {
	s := trace.Summarize([]obs.Event{
		{At: 1, Kind: obs.KindRelease, Node: 3},
	})
	if len(s.Corruptions) != 0 {
		t.Fatalf("phantom corruption: %+v", s.Corruptions)
	}
}

func TestSummarizeEndToEnd(t *testing.T) {
	// Full pipeline: scenario → recorded stream → parse → summarize.
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	s := scenario.Scenario{
		Name:     "summary-e2e",
		Seed:     5,
		N:        4,
		F:        1,
		Duration: 5 * simtime.Minute,
		Theta:    100 * simtime.Second,
		Rho:      1e-4,
		Adversary: adversary.Static([]int{2}, 30, 60, func(int) protocol.Behavior {
			return adversary.ClockSmash{Offset: 5}
		}),
		SamplePeriod: 10 * simtime.Second,
		EventSink:    sink,
		SpanSink:     sink,
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
	sum := trace.Summarize(events)
	if sum.Nodes != 4 {
		t.Fatalf("nodes: %d", sum.Nodes)
	}
	if len(sum.Corruptions) != 1 || sum.Corruptions[0].Node != 2 {
		t.Fatalf("corruptions: %+v", sum.Corruptions)
	}
	if sum.PerNode[2].TimeFaulty < 29 || sum.PerNode[2].TimeFaulty > 31 {
		t.Fatalf("fault time: %v", sum.PerNode[2].TimeFaulty)
	}
	if sum.Adjusts == 0 || sum.Samples == 0 {
		t.Fatalf("missing activity: %+v", sum)
	}
	// The node smashed by 5 s must show a recovery jump of that order.
	if sum.PerNode[2].MaxAdjust < 2 {
		t.Fatalf("recovery jump not visible: %+v", sum.PerNode[2])
	}
}
