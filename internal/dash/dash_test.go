package dash

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"clocksync/internal/adversary"
	"clocksync/internal/obs"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

func TestDashRendersFrame(t *testing.T) {
	var out bytes.Buffer
	d := New(Config{Out: &out, N: 3, Delta: 0.05, MinFrame: -1, Width: 20})

	d.EmitSpan(obs.Span{Name: obs.SpanEstimate, Fields: obs.F("ok", 1).F("rtt", 0.012)})
	d.Emit(obs.Event{At: 1, Kind: obs.KindSample, Biases: []float64{0.01, -0.02, 0}, Deviation: 0.03})
	d.Emit(obs.Event{At: 2, Kind: obs.KindRound, Node: 1, Fields: map[string]float64{"delta": -0.004, "failed": 0}})
	d.Emit(obs.Event{At: 3, Kind: obs.KindTimeout, Node: 2, Fields: map[string]float64{"peer": 0}})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	got := out.String()
	for _, want := range []string{
		"deviation 0.03s / Δ 0.05s (60%)",
		"offsets vs Δ envelope:",
		"n0", "n1", "n2",
		"rtt", "|adjust|",
		"recent events:",
		"round", "timeout", "delta=-0.004",
		"\x1b[H\x1b[2J",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frame missing %q:\n%s", want, got)
		}
	}
}

// TestDashServePanel pins the serve-path panel: with Recorders wired, a
// frame shows the merged query total, an inter-frame rate, and reply-latency
// quantiles from the merged (sampled) ServeLatency histograms.
func TestDashServePanel(t *testing.T) {
	recA, recB := obs.NewRecorder(), obs.NewRecorder()
	var out bytes.Buffer
	d := New(Config{Out: &out, N: 1, Delta: 0.05, MinFrame: -1, Width: 20,
		Recorders: func() []*obs.Recorder { return []*obs.Recorder{recA, recB} }})
	base := time.Unix(1000, 0)
	d.now = func() time.Time { return base }

	recA.ServeQueries.Add(100)
	recB.ServeQueries.Add(50)
	recA.ServeLatency.Observe(2e-6)
	recB.ServeLatency.Observe(3e-6)
	d.Emit(obs.Event{At: 1, Kind: obs.KindSample, Biases: []float64{0}, Deviation: 0})

	got := out.String()
	if !strings.Contains(got, "serve path: 150 queries") {
		t.Errorf("frame missing merged serve total:\n%s", got)
	}
	if !strings.Contains(got, "reply") {
		t.Errorf("frame missing reply latency line:\n%s", got)
	}

	// Second frame one second later: 300 more queries → 300/s.
	out.Reset()
	d.now = func() time.Time { return base.Add(time.Second) }
	recA.ServeQueries.Add(300)
	d.Emit(obs.Event{At: 2, Kind: obs.KindSample, Biases: []float64{0}, Deviation: 0})
	if got := out.String(); !strings.Contains(got, "serve path: 450 queries  300/s") {
		t.Errorf("frame missing inter-frame query rate:\n%s", got)
	}

	// Without Recorders the panel stays out of the frame entirely.
	var plain bytes.Buffer
	p := New(Config{Out: &plain, N: 1, Delta: 0.05, MinFrame: -1, Width: 20})
	p.Emit(obs.Event{At: 1, Kind: obs.KindSample, Biases: []float64{0}, Deviation: 0})
	if strings.Contains(plain.String(), "serve path") {
		t.Errorf("serve panel rendered without recorders:\n%s", plain.String())
	}
}

func TestDashThrottlesFrames(t *testing.T) {
	var out bytes.Buffer
	d := New(Config{Out: &out, N: 1, Delta: 1, MinFrame: time.Hour, Width: 10})
	// Pin the clock so the first event lands inside the throttle window.
	base := time.Unix(1000, 0)
	d.lastFrame = base
	d.now = func() time.Time { return base.Add(time.Second) }

	d.Emit(obs.Event{At: 1, Kind: obs.KindSample, Biases: []float64{0}, Deviation: 0})
	if out.Len() != 0 {
		t.Fatalf("frame rendered inside throttle window:\n%s", out.String())
	}
	d.now = func() time.Time { return base.Add(2 * time.Hour) }
	d.Emit(obs.Event{At: 2, Kind: obs.KindSample, Biases: []float64{0}, Deviation: 0})
	if out.Len() == 0 {
		t.Fatal("no frame rendered after throttle window passed")
	}
}

func TestGaugePinsToEnvelope(t *testing.T) {
	g := gauge(10, 0.05, 21) // way outside Δ: pins right
	if g[len(g)-2] != 'o' {
		t.Errorf("over-envelope offset not pinned right: %s", g)
	}
	g = gauge(-10, 0.05, 21)
	if g[1] != 'o' {
		t.Errorf("under-envelope offset not pinned left: %s", g)
	}
	g = gauge(0, 0.05, 21)
	if !strings.Contains(g, "o") {
		t.Errorf("zero offset lost its marker: %s", g)
	}
}

// TestDashShowsBreakInDuringRun pins that the dashboard learns of a break-in
// when it happens, not from a schedule dump after the run: by the first event
// past t=31 s of a 90 s run whose node 2 is corrupted at t=30 s, some frame
// must already have shown the corrupt event.
func TestDashShowsBreakInDuringRun(t *testing.T) {
	var out bytes.Buffer
	d := New(Config{Out: &out, N: 4, Delta: 0.1, MinFrame: -1})
	checkedAt := 0.0
	o := obs.NewObserver(d, obs.SinkFunc(func(e obs.Event) {
		if checkedAt == 0 && e.At >= 31 {
			checkedAt = e.At
			if !strings.Contains(out.String(), obs.KindCorrupt) {
				t.Errorf("at t=%.1fs no frame has shown the t=30s break-in yet", e.At)
			}
		}
	}))
	_, err := scenario.Run(scenario.Scenario{
		Name: "dash-breakin", Seed: 1, N: 4, F: 1,
		Duration: 90 * simtime.Second, Theta: 2 * simtime.Minute,
		Rho: 1e-4, InitSpread: 100 * simtime.Millisecond,
		SamplePeriod: 10 * simtime.Second,
		Adversary: adversary.Schedule{Corruptions: []adversary.Corruption{{
			Node: 2, From: 30 * simtime.Time(simtime.Second), To: 60 * simtime.Time(simtime.Second),
			Behavior: adversary.ClockSmash{Offset: 5 * simtime.Second},
		}}},
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if checkedAt == 0 || checkedAt >= 60 {
		t.Fatalf("the mid-run check ran at t=%v, want inside the corruption window", checkedAt)
	}
}
