package livenet

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"clocksync/internal/obs"
	"clocksync/internal/trace"
)

// TestMarshalReadingGolden pins the GET /read body byte-for-byte — it is a
// public wire surface consumed outside this repository.
func TestMarshalReadingGolden(t *testing.T) {
	r := Reading{
		Time:        time.Unix(1735689600, 123456789).UTC(),
		Uncertainty: 250 * time.Microsecond,
		Epoch:       42,
	}
	data, err := marshalReading(r)
	if err != nil {
		t.Fatal(err)
	}
	golden := `{"time_unix_nano":1735689600123456789,"time":"2025-01-01T00:00:00.123456789Z","uncertainty_ns":250000,"epoch":42}`
	if string(data) != golden {
		t.Errorf("/read body:\n got %s\nwant %s", data, golden)
	}
}

func getJSON(t *testing.T, addr, path string, out any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type %q, want application/json", path, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: parsing %q: %v", path, body, err)
	}
}

// TestTelemetryEndpoints drives a live cluster and checks the three fleet
// endpoints against their contracts: /statusz self-consistent and complete,
// /read's field set exactly the pinned schema, /spanz a trace-parseable
// array — and, the heart of the telemetry plane, estimate spans on one node
// joined by id to reply spans recorded on another.
func TestTelemetryEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test")
	}
	c, err := NewCluster(ClusterConfig{
		N: 3, F: 0,
		SyncInt:    100 * time.Millisecond,
		MaxWait:    50 * time.Millisecond,
		WayOff:     time.Second,
		Offsets:    []time.Duration{3 * time.Millisecond, -2 * time.Millisecond},
		Metrics:    true,
		SpanBuffer: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	if err := c.WaitConverged(10*time.Millisecond, 2, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	addr := c.MetricsAddr(0)

	var st Statusz
	getJSON(t, addr, "/statusz", &st)
	if st.ID != 0 {
		t.Errorf("statusz id = %d, want 0", st.ID)
	}
	if st.Epoch == 0 || st.Syncs == 0 {
		t.Errorf("statusz epoch=%d syncs=%d after converged rounds", st.Epoch, st.Syncs)
	}
	if got := float64(st.TimeUnixNano-st.WallUnixNano) / 1e9; got-st.OffsetSec > 1e-3 || st.OffsetSec-got > 1e-3 {
		t.Errorf("offset_sec %v inconsistent with time−wall %v", st.OffsetSec, got)
	}
	if st.UncertaintySec <= 0 {
		t.Errorf("uncertainty_sec = %v, want positive", st.UncertaintySec)
	}
	if len(st.Peers) != 2 {
		t.Fatalf("statusz peers = %+v, want 2 entries", st.Peers)
	}
	for _, p := range st.Peers {
		if p.Dark || p.Replies == 0 {
			t.Errorf("peer %d unhealthy on a loopback cluster: %+v", p.ID, p)
		}
	}
	if st.LastRound == nil {
		t.Error("statusz last_round missing after completed rounds")
	} else if st.LastRound.AgeSec < 0 || st.LastRound.AgeSec > 60 {
		t.Errorf("last_round age %v implausible", st.LastRound.AgeSec)
	}

	// /read: the body must carry exactly the pinned schema, no more keys, and
	// a reading consistent with the node's own Read().
	var read map[string]json.RawMessage
	getJSON(t, addr, "/read", &read)
	for _, k := range []string{"time_unix_nano", "time", "uncertainty_ns", "epoch"} {
		if _, ok := read[k]; !ok {
			t.Errorf("/read body missing %q: %v", k, read)
		}
	}
	if len(read) != 4 {
		t.Errorf("/read body has %d keys, want exactly 4: %v", len(read), read)
	}
	var nanos int64
	if err := json.Unmarshal(read["time_unix_nano"], &nanos); err != nil {
		t.Fatal(err)
	}
	if diff := time.Duration(c.Node(0).Read().Time.UnixNano() - nanos); diff < -time.Second || diff > time.Second {
		t.Errorf("/read time %d is %v away from a live Read()", nanos, diff)
	}

	// /spanz on every node, and the cross-node join: some estimate span on
	// node i must have a reply span with the same id on the peer it measured.
	spansOf := make([][]obs.Event, 3)
	for i := 0; i < 3; i++ {
		resp, err := http.Get("http://" + c.MetricsAddr(i) + "/spanz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if spansOf[i], err = trace.ReadJSON(body); err != nil {
			t.Fatalf("node %d /spanz unparseable: %v", i, err)
		}
	}
	type joinKey struct {
		origin int
		id     uint64
	}
	replies := make(map[joinKey]bool)
	for i, spans := range spansOf {
		for _, e := range spans {
			if e.Name == "reply" {
				if e.Node != i {
					t.Errorf("node %d ring holds node %d's reply span", i, e.Node)
				}
				replies[joinKey{origin: int(e.Field("origin")), id: e.Span}] = true
			}
		}
	}
	joined, completed := 0, 0
	for i, spans := range spansOf {
		for _, e := range spans {
			if e.Name == "estimate" && e.Field("ok") == 1 {
				completed++
				if replies[joinKey{origin: i, id: e.Span}] {
					joined++
				}
			}
		}
	}
	if completed == 0 {
		t.Fatal("no completed estimate spans recorded")
	}
	// The last in-flight exchanges may straddle the scrape; near-total join
	// is the contract.
	if frac := float64(joined) / float64(completed); frac < 0.9 {
		t.Errorf("cross-node join: %d/%d estimate spans found their reply (%.2f), want >= 0.9",
			joined, completed, frac)
	}

	// Fleet endpoints exist on every node's mux.
	for i := 0; i < 3; i++ {
		var sti Statusz
		getJSON(t, c.MetricsAddr(i), "/statusz", &sti)
		if sti.ID != i {
			t.Errorf("node %d serves statusz id %d", i, sti.ID)
		}
	}
}
