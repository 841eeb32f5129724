package livenet

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"clocksync/internal/obs"
)

// scrape fetches a /metrics page and parses it into name{labels} → value.
func scrape(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestClusterServesMetrics is the ISSUE acceptance check: a loopback
// cluster with metrics enabled serves /metrics with non-zero
// clocksync_sync_rounds_total and clocksync_messages_received_total, and the
// counters are monotonic across scrapes while sync rounds execute.
func TestClusterServesMetrics(t *testing.T) {
	ring := obs.NewRing(4096)
	c, err := NewCluster(ClusterConfig{
		N: 4, F: 1,
		SyncInt:  150 * time.Millisecond,
		MaxWait:  60 * time.Millisecond,
		WayOff:   time.Second,
		Offsets:  []time.Duration{-40 * time.Millisecond, 20 * time.Millisecond},
		Metrics:  true,
		Observer: obs.NewObserver(ring),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	// Wait until every node has completed a few rounds.
	if err := c.WaitConverged(time.Hour, 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	addr := c.MetricsAddr(0)
	if addr == "" {
		t.Fatal("metrics endpoint not bound after Start")
	}
	first := scrape(t, addr)
	rounds := fmt.Sprintf("clocksync_sync_rounds_total{node=%q}", "0")
	received := fmt.Sprintf("clocksync_messages_received_total{node=%q}", "0")
	if first[rounds] == 0 {
		t.Errorf("%s is zero after converged rounds:\n%v", rounds, first)
	}
	if first[received] == 0 {
		t.Errorf("%s is zero on a loopback cluster:\n%v", received, first)
	}

	// Counter monotonicity across a sync interval.
	n0 := c.Node(0)
	target := n0.Syncs() + 2
	deadline := time.Now().Add(10 * time.Second)
	for n0.Syncs() < target && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	second := scrape(t, addr)
	for _, name := range []string{rounds, received,
		fmt.Sprintf("clocksync_messages_sent_total{node=%q}", "0")} {
		if second[name] < first[name] {
			t.Errorf("%s went backwards: %g -> %g", name, first[name], second[name])
		}
	}
	if second[rounds] <= first[rounds] {
		t.Errorf("%s did not advance while rounds executed: %g -> %g",
			rounds, first[rounds], second[rounds])
	}

	// The shared observer saw round events from the cluster.
	sawRound := false
	for _, e := range ring.Events() {
		if e.Kind == obs.KindRound {
			sawRound = true
			break
		}
	}
	if !sawRound {
		t.Error("cluster observer captured no round events")
	}

	// Every node serves its own endpoint.
	for i := 0; i < 4; i++ {
		if c.MetricsAddr(i) == "" {
			t.Errorf("node %d has no metrics endpoint", i)
		}
	}
}

// TestNodeMetricsCountAuthFailures checks the auth path increments the
// HMAC-failure counter: a keyed node receiving a well-formed sync query
// signed with another key drops and counts it.
func TestNodeMetricsCountAuthFailures(t *testing.T) {
	nodes, _ := startCluster(t, 4, 1, nil, []byte("secret"))
	// Speak the wire protocol with the wrong key directly at node 0.
	dst, err := net.ResolveUDPAddr("udp", nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := newSyncSigner([]byte("not-the-secret")).encode(syncMsg{from: 9, nonce: 1})
	for i := 0; i < 5; i++ {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].Metrics().AuthFailures.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := nodes[0].Metrics().AuthFailures.Load(); got == 0 {
		t.Error("unauthenticated datagrams not counted")
	}
}
