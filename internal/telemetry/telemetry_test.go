package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"clocksync/internal/livenet"
	"clocksync/internal/obs"
	"clocksync/internal/telemetry"
	"clocksync/internal/trace"
)

// TestParsePromRoundTrip pins the scraper's ability to read back the
// repository's own exposition format exactly: every scalar sample and every
// histogram bucket must survive WriteProm → ParseProm unchanged.
func TestParsePromRoundTrip(t *testing.T) {
	rec := obs.NewRecorder()
	rec.MessagesSent.Add(42)
	rec.ServeQueries.Add(7)
	rec.PeersDark.Set(2)
	rec.LastAdjust.Set(-0.00325)
	for i := 0; i < 100; i++ {
		rec.RTT.Observe(0.0001 * float64(i+1))
	}
	rec.ServeLatency.Observe(3e-6)

	var buf bytes.Buffer
	if err := rec.WriteProm(&buf, `node="3"`); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	m, err := telemetry.ParseProm(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	if got := m.Value("clocksync_messages_sent_total"); got != 42 {
		t.Errorf("messages_sent = %v, want 42", got)
	}
	if got := m.Value("clocksync_serve_queries_total"); got != 7 {
		t.Errorf("serve_queries = %v, want 7", got)
	}
	if got := m.Value("clocksync_peers_dark"); got != 2 {
		t.Errorf("peers_dark = %v, want 2", got)
	}
	if got := m.Value("clocksync_last_adjust_seconds"); got != -0.00325 {
		t.Errorf("last_adjust = %v, want -0.00325", got)
	}

	h := m.Hist("clocksync_rtt_seconds")
	if h == nil {
		t.Fatal("rtt histogram missing after parse")
	}
	if h.Count() != rec.RTT.Count() {
		t.Errorf("rtt count = %d, want %d", h.Count(), rec.RTT.Count())
	}
	if math.Abs(h.Sum()-rec.RTT.Sum()) > 1e-12 {
		t.Errorf("rtt sum = %v, want %v", h.Sum(), rec.RTT.Sum())
	}
	if !reflect.DeepEqual(h.Buckets(), rec.RTT.Buckets()) {
		t.Errorf("rtt buckets differ after round trip")
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := h.Quantile(q), rec.RTT.Quantile(q); got != want {
			t.Errorf("rtt q%.2f = %v, want %v", q, got, want)
		}
	}
	if got := m.Hist("clocksync_serve_latency_seconds"); got == nil || got.Count() != 1 {
		t.Errorf("serve latency histogram: %+v, want 1 observation", got)
	}
}

// TestMergeDisjointBuckets pins the merged-scrape histogram semantics: two
// nodes whose observations fall in entirely different buckets must merge
// into one histogram carrying both populations, exactly as the in-process
// obs.Histogram.Merge would.
func TestMergeDisjointBuckets(t *testing.T) {
	recA, recB := obs.NewRecorder(), obs.NewRecorder()
	for i := 0; i < 3; i++ {
		recA.RTT.Observe(1e-6) // microseconds: low buckets
	}
	for i := 0; i < 2; i++ {
		recB.RTT.Observe(1.0) // whole seconds: top of the layout
	}
	var bufA, bufB bytes.Buffer
	if err := recA.WriteProm(&bufA, `node="0"`); err != nil {
		t.Fatal(err)
	}
	if err := recB.WriteProm(&bufB, `node="1"`); err != nil {
		t.Fatal(err)
	}
	mA, err := telemetry.ParseProm(bufA.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mB, err := telemetry.ParseProm(bufB.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	snap := &telemetry.Snapshot{Nodes: []telemetry.NodeScrape{
		{Target: telemetry.Target{Node: 0}, Metrics: mA},
		{Target: telemetry.Target{Node: 1}, Metrics: mB},
	}}
	merged := snap.Merged()
	h := merged.Hist("clocksync_rtt_seconds")
	if h == nil {
		t.Fatal("merged rtt histogram missing")
	}
	if h.Count() != 5 {
		t.Errorf("merged count = %d, want 5", h.Count())
	}
	if want := 3*1e-6 + 2*1.0; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("merged sum = %v, want %v", h.Sum(), want)
	}
	// The reference merge: the same two histograms combined in-process.
	ref := &obs.Histogram{}
	ref.Merge(&recA.RTT)
	ref.Merge(&recB.RTT)
	if !reflect.DeepEqual(h.Buckets(), ref.Buckets()) {
		t.Errorf("merged buckets differ from in-process Merge")
	}
	// 3 of 5 observations are microseconds, so the median is low and p99 is
	// in the seconds range — the disjoint populations both survived.
	if p50 := h.Quantile(0.5); p50 > 1e-4 {
		t.Errorf("merged p50 = %v, want microsecond range", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.5 {
		t.Errorf("merged p99 = %v, want ~1s range", p99)
	}
}

// fakeNode serves a minimal valid ops surface for scraper tests.
func fakeNode(t *testing.T, id int, rec *obs.Recorder, status livenet.Statusz, spans []obs.Span) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		rec.WriteProm(w, "")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(status)
	})
	mux.HandleFunc("/spanz", func(w http.ResponseWriter, r *http.Request) {
		data, err := obs.MarshalSpans(spans)
		if err != nil {
			http.Error(w, err.Error(), 500)
			return
		}
		w.Write(data)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestScrapeNodeDownMidScrape pins the fleet scraper's failure isolation: a
// target that refuses connections gets its error recorded while every other
// node's scrape completes, and the merged view covers exactly the survivors.
func TestScrapeNodeDownMidScrape(t *testing.T) {
	recA, recB := obs.NewRecorder(), obs.NewRecorder()
	recA.SyncRounds.Add(10)
	recB.SyncRounds.Add(20)
	srvA := fakeNode(t, 0, recA, livenet.Statusz{ID: 0, Epoch: 5}, nil)
	srvB := fakeNode(t, 1, recB, livenet.Statusz{ID: 1, Epoch: 5}, nil)

	// A server stopped before the scrape stands in for a node that died
	// mid-round: the port is known but nobody answers.
	srvDead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := srvDead.Listener.Addr().String()
	srvDead.Close()

	sc := &telemetry.Scraper{Targets: []telemetry.Target{
		{Node: 0, Addr: srvA.Listener.Addr().String()},
		{Node: 1, Addr: srvB.Listener.Addr().String()},
		{Node: 2, Addr: deadAddr},
	}}
	snap := sc.Scrape(context.Background())
	if got := len(snap.Ok()); got != 2 {
		t.Fatalf("ok scrapes = %d, want 2", got)
	}
	if snap.Nodes[2].Err == nil || snap.Nodes[2].Metrics != nil {
		t.Errorf("dead node scrape: err=%v metrics=%v, want error and no data", snap.Nodes[2].Err, snap.Nodes[2].Metrics)
	}
	if got := snap.Merged().Value("clocksync_sync_rounds_total"); got != 30 {
		t.Errorf("merged sync rounds = %v, want 30 (survivors only)", got)
	}
}

// TestScrapeRejectsMisconfiguredID pins the identity check: a target whose
// /statusz claims a different node id than configured is an operator error
// (crossed ports) and must fail that node's scrape, not silently mis-join
// every span it serves.
func TestScrapeRejectsMisconfiguredID(t *testing.T) {
	rec := obs.NewRecorder()
	srv := fakeNode(t, 7, rec, livenet.Statusz{ID: 7}, nil)
	sc := &telemetry.Scraper{Targets: []telemetry.Target{
		{Node: 3, Addr: srv.Listener.Addr().String()}, // wrong: serves node 7
	}}
	snap := sc.Scrape(context.Background())
	if snap.Nodes[0].Err == nil {
		t.Fatal("scrape of mislabeled target succeeded, want identity error")
	}
}

// span builds a synthetic /spanz-shaped trace event.
func span(node int, name string, id uint64, at, dur float64, fields map[string]float64) obs.Event {
	return obs.Event{At: at, Kind: obs.KindSpan, Node: node, Name: name, Span: id, Dur: &dur, Fields: fields}
}

// scrapeOf builds a synthetic successful NodeScrape.
func scrapeOf(node int, st livenet.Statusz, spans ...obs.Event) telemetry.NodeScrape {
	st.ID = node
	return telemetry.NodeScrape{
		Target: telemetry.Target{Node: node},
		Status: &st,
		Spans:  spans,
	}
}

// TestAlignJoinsAndChecksCausality pins the core invariant on synthetic
// data: a responder observation inside the requester's corrected send→recv
// window passes; one outside it (beyond both uncertainty intervals plus
// slack) is a causal-order violation.
func TestAlignJoinsAndChecksCausality(t *testing.T) {
	stOK := livenet.Statusz{UncertaintySec: 1e-4}
	snap := &telemetry.Snapshot{Nodes: []telemetry.NodeScrape{
		scrapeOf(0, stOK,
			// Good exchange: remote observation near the midpoint.
			span(0, "estimate", 7, 1000.000, 0.010, map[string]float64{"peer": 1, "ok": 1}),
			// Bad exchange: the responder claims to have seen it 50ms after
			// the requester already had the reply in hand.
			span(0, "estimate", 8, 2000.000, 0.010, map[string]float64{"peer": 1, "ok": 1}),
			// Timed-out attempt: no responder half, and not a completed
			// exchange — must not count against the join rate.
			span(0, "estimate", 9, 3000.000, 0.025, map[string]float64{"peer": 1, "ok": 0}),
		),
		scrapeOf(1, stOK,
			span(1, "reply", 7, 1000.005, 0, map[string]float64{"origin": 0}),
			span(1, "reply", 8, 2000.060, 0, map[string]float64{"origin": 0}),
		),
	}}
	al := telemetry.Align(snap, telemetry.AlignConfig{})
	if al.Completed != 2 {
		t.Errorf("completed = %d, want 2 (ok=0 attempt excluded)", al.Completed)
	}
	if len(al.Pairs) != 2 {
		t.Fatalf("joined pairs = %d, want 2", len(al.Pairs))
	}
	if al.JoinRate() != 1 {
		t.Errorf("join rate = %v, want 1", al.JoinRate())
	}
	if al.Violations != 1 {
		t.Fatalf("violations = %d, want exactly the late reply", al.Violations)
	}
	if al.Pairs[0].Violated || !al.Pairs[1].Violated {
		t.Errorf("wrong pair flagged: %+v", al.Pairs)
	}
}

// TestAlignUsesStatuszCorrections pins the timeline seam: a responder whose
// host wall clock is 40ms off reports that correction on /statusz, and the
// aligner must use it — the same raw timestamps flagged without the
// correction pass with it.
func TestAlignUsesStatuszCorrections(t *testing.T) {
	req := span(0, "estimate", 7, 1000.000, 0.010, map[string]float64{"peer": 1, "ok": 1})
	rep := span(1, "reply", 7, 1000.045, 0, map[string]float64{"origin": 0})

	// Without the correction the reply appears 35ms after the window.
	snap := &telemetry.Snapshot{Nodes: []telemetry.NodeScrape{
		scrapeOf(0, livenet.Statusz{UncertaintySec: 1e-4}, req),
		scrapeOf(1, livenet.Statusz{UncertaintySec: 1e-4}, rep),
	}}
	if al := telemetry.Align(snap, telemetry.AlignConfig{}); al.Violations != 1 {
		t.Fatalf("uncorrected: violations = %d, want 1", al.Violations)
	}
	// The responder knows its host clock runs 40ms ahead of its disciplined
	// clock (offset −40ms); aligned, the observation lands mid-window.
	snap = &telemetry.Snapshot{Nodes: []telemetry.NodeScrape{
		scrapeOf(0, livenet.Statusz{UncertaintySec: 1e-4}, req),
		scrapeOf(1, livenet.Statusz{UncertaintySec: 1e-4, OffsetSec: -0.040}, rep),
	}}
	if al := telemetry.Align(snap, telemetry.AlignConfig{}); al.Violations != 0 {
		t.Fatalf("corrected: violations = %d, want 0", al.Violations)
	}
}

// TestAlignFlagsAsymmetricLink pins the residual analysis: joined pairs
// whose remote observations sit persistently off-midpoint on one directed
// link — within tolerance, so no causal violation — still surface as a
// link-asymmetry warning.
func TestAlignFlagsAsymmetricLink(t *testing.T) {
	st := livenet.Statusz{UncertaintySec: 0.02} // wide envelope: nothing violates
	var reqs, reps []obs.Event
	for i := 0; i < 4; i++ {
		at := 1000.0 + float64(i)
		reqs = append(reqs, span(0, "estimate", uint64(10+i), at, 0.030, map[string]float64{"peer": 1, "ok": 1}))
		// Remote observation at send+25ms of a 30ms window: residual +10ms.
		reps = append(reps, span(1, "reply", uint64(10+i), at+0.025, 0, map[string]float64{"origin": 0}))
	}
	snap := &telemetry.Snapshot{Nodes: []telemetry.NodeScrape{
		scrapeOf(0, st, reqs...),
		scrapeOf(1, st, reps...),
	}}
	al := telemetry.Align(snap, telemetry.AlignConfig{})
	if al.Violations != 0 {
		t.Fatalf("violations = %d, want 0 (within tolerance)", al.Violations)
	}
	if len(al.Links) != 1 || al.Links[0].From != 0 || al.Links[0].To != 1 {
		t.Fatalf("links = %+v, want exactly 0->1", al.Links)
	}
	if got := al.Links[0].MeanResidual; math.Abs(got-0.010) > 1e-9 {
		t.Errorf("mean residual = %v, want 0.010", got)
	}
}

// TestAlignStaleEpoch pins stale-epoch detection: a node whose sync epoch
// trails the fleet maximum by more than the configured lag is reported.
func TestAlignStaleEpoch(t *testing.T) {
	snap := &telemetry.Snapshot{Nodes: []telemetry.NodeScrape{
		scrapeOf(0, livenet.Statusz{Epoch: 50}),
		scrapeOf(1, livenet.Statusz{Epoch: 49}), // within lag
		scrapeOf(2, livenet.Statusz{Epoch: 12}), // stale: stopped syncing long ago
	}}
	al := telemetry.Align(snap, telemetry.AlignConfig{EpochLag: 3})
	if len(al.Stale) != 1 {
		t.Fatalf("stale = %+v, want exactly node 2", al.Stale)
	}
	s := al.Stale[0]
	if s.Node != 2 || s.Epoch != 12 || s.FleetEpoch != 50 {
		t.Errorf("stale entry = %+v", s)
	}
}

// TestExportNamespacesSpanIDs pins the JSONL export's id remapping: two
// nodes whose local span counters collide must export fleet-unique ids,
// with parent links intact per node and reply spans remapped into their
// origin's namespace so the cross-node join survives the export.
func TestExportNamespacesSpanIDs(t *testing.T) {
	est := span(0, "estimate", 2, 1000.0, 0.01, map[string]float64{"peer": 1, "ok": 1})
	est.Parent = 1
	snap := &telemetry.Snapshot{Nodes: []telemetry.NodeScrape{
		scrapeOf(0, livenet.Statusz{},
			span(0, "round", 1, 1000.0, 0.05, nil),
			est,
		),
		scrapeOf(1, livenet.Statusz{},
			span(1, "round", 1, 1000.1, 0.05, nil), // same local ids as node 0
			span(1, "reply", 2, 1000.005, 0, map[string]float64{"origin": 0}),
		),
	}}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, snap); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("re-reading export: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("exported %d events, want 4", len(events))
	}
	byName := map[string][]obs.Event{}
	ids := map[uint64]int{}
	for _, e := range events {
		byName[e.Name] = append(byName[e.Name], e)
		if e.Name != "reply" { // the reply deliberately shares its requester's id
			ids[e.Span]++
		}
	}
	for id, n := range ids {
		if n != 1 {
			t.Errorf("span id %d exported %d times, want unique", id, n)
		}
	}
	if r := byName["round"]; r[0].Span == r[1].Span {
		t.Errorf("colliding round ids not namespaced: both %d", r[0].Span)
	}
	est, rep := byName["estimate"][0], byName["reply"][0]
	if est.Span != rep.Span {
		t.Errorf("cross-node join broken by export: estimate id %d, reply id %d", est.Span, rep.Span)
	}
	// Parent links must stay within the node's namespace.
	var round0 obs.Event
	for _, r := range byName["round"] {
		if r.Node == 0 {
			round0 = r
		}
	}
	if est.Parent != round0.Span {
		t.Errorf("estimate parent %d does not match its node's round %d", est.Parent, round0.Span)
	}
}
