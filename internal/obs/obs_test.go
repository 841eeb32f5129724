package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.MessagesSent.Inc()
				r.SyncRounds.Add(2)
				r.LastAdjust.Set(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.MessagesSent.Load(); got != 8000 {
		t.Errorf("MessagesSent = %d, want 8000", got)
	}
	if got := r.SyncRounds.Load(); got != 16000 {
		t.Errorf("SyncRounds = %d, want 16000", got)
	}
	if got := r.LastAdjust.Load(); got != 0.25 {
		t.Errorf("LastAdjust = %g, want 0.25", got)
	}
}

func TestCounterRejectsNegativeAdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestWritePromFormat(t *testing.T) {
	r := NewRecorder()
	r.MessagesSent.Add(42)
	r.LastAdjust.Set(-0.005)
	var b strings.Builder
	if err := r.WriteProm(&b, `node="3"`); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP clocksync_messages_sent_total",
		"# TYPE clocksync_messages_sent_total counter",
		`clocksync_messages_sent_total{node="3"} 42`,
		"# TYPE clocksync_last_adjust_seconds gauge",
		`clocksync_last_adjust_seconds{node="3"} -0.005`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromMultipleRecordersShareHeaders(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	a.SyncRounds.Add(1)
	b.SyncRounds.Add(2)
	var sb strings.Builder
	err := WriteProm(&sb, map[string]*Recorder{`node="0"`: a, `node="1"`: b})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE clocksync_sync_rounds_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1", n)
	}
	if !strings.Contains(out, `clocksync_sync_rounds_total{node="0"} 1`) ||
		!strings.Contains(out, `clocksync_sync_rounds_total{node="1"} 2`) {
		t.Errorf("per-node samples missing:\n%s", out)
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{At: float64(i), Kind: KindRound})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.At != float64(i+2) {
			t.Errorf("event %d has At=%g, want %g (oldest-first)", i, e.At, float64(i+2))
		}
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var b strings.Builder
	j := NewJSONL(&b)
	j.Emit(Event{At: 1.5, Kind: KindRound, Node: 2, Fields: map[string]float64{"delta": 0.25}})
	j.Emit(Event{At: 2.5, Kind: KindSkip, Node: 1})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindRound || e.Node != 2 || e.Fields["delta"] != 0.25 {
		t.Errorf("round-trip mismatch: %+v", e)
	}
}

func TestObserverTallyAndFanOut(t *testing.T) {
	ring := NewRing(10)
	var got []Event
	var mu sync.Mutex
	fn := SinkFunc(func(e Event) { mu.Lock(); got = append(got, e); mu.Unlock() })
	o := NewObserver(ring)
	o.AddSink(fn)
	o.Emit(Event{Kind: KindRound})
	o.Emit(Event{Kind: KindRound})
	o.Emit(Event{Kind: KindSkip})
	counts := o.EventCounts()
	if counts[KindRound] != 2 || counts[KindSkip] != 1 {
		t.Errorf("tally = %v", counts)
	}
	if ring.Total() != 3 || len(got) != 3 {
		t.Errorf("fan-out incomplete: ring=%d fn=%d", ring.Total(), len(got))
	}
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.Emit(Event{Kind: KindRound}) // must not panic
	o.AddSink(NewRing(1))
	if o.Recorder() != nil {
		t.Error("nil observer returned a recorder")
	}
	if o.EventCounts() != nil {
		t.Error("nil observer returned counts")
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRecorder()
	r.SyncRounds.Add(7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	addr, err := Serve(ctx, &wg, "127.0.0.1:0", RecorderMux(r))
	if err != nil {
		t.Fatal(err)
	}
	body := httpGet(t, fmt.Sprintf("http://%s/metrics", addr))
	if !strings.Contains(body, "clocksync_sync_rounds_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if pp := httpGet(t, fmt.Sprintf("http://%s/debug/pprof/cmdline", addr)); pp == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
	cancel()
	wg.Wait()
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMarshalSpansPinned pins the /spanz body byte for byte on a fixed
// five-span slice: a round with fields, an estimate under it, a zero-duration
// reading (which keeps its "dur":0), a root span with no fields at all (no
// "fields" key, no "parent" key), and a reply on another node. Whatever
// encodes a span must reproduce it unmodified.
func TestMarshalSpansPinned(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: SpanRound, Node: 3, Start: 10, End: 10.25, Fields: F("delta", -0.004).F("wayoff", 0)},
		{ID: 2, Parent: 1, Name: SpanEstimate, Node: 3, Start: 10, End: 10.125,
			Fields: F("peer", 1).F("rtt", 0.125).F("d", 0.5).F("a", 0.0625).F("ok", 1)},
		{ID: 3, Parent: 2, Name: SpanReading, Node: 3, Start: 10.25, End: 10.25,
			Fields: F("peer", 1).F("accepted", 1)},
		{ID: 4, Name: SpanQuery, Start: 11, End: 11.5},
		{ID: 2, Name: SpanReply, Node: 1, Start: 10.0625, End: 10.0625, Fields: F("origin", 3)},
	}
	const want = `[` +
		`{"at":10,"kind":"span","node":3,"name":"round","span":1,"dur":0.25,"fields":{"delta":-0.004,"wayoff":0}},` +
		`{"at":10,"kind":"span","node":3,"name":"estimate","span":2,"parent":1,"dur":0.125,"fields":{"a":0.0625,"d":0.5,"ok":1,"peer":1,"rtt":0.125}},` +
		`{"at":10.25,"kind":"span","node":3,"name":"reading","span":3,"parent":2,"dur":0,"fields":{"accepted":1,"peer":1}},` +
		`{"at":11,"kind":"span","name":"query","span":4,"dur":0.5},` +
		`{"at":10.0625,"kind":"span","node":1,"name":"reply","span":2,"dur":0,"fields":{"origin":3}}` +
		`]`
	got, err := MarshalSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("MarshalSpans drifted:\n got %s\nwant %s", got, want)
	}
}
