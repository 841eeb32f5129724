package telemetry_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"clocksync/internal/livenet"
	"clocksync/internal/network"
	"clocksync/internal/simtime"
	"clocksync/internal/telemetry"
	"clocksync/internal/trace"
)

// waitMetricsUp polls until every address callback returns a bound port.
func waitMetricsUp(t *testing.T, n int, addr func(int) string) []telemetry.Target {
	t.Helper()
	targets := make([]telemetry.Target, n)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < n; i++ {
		for addr(i) == "" {
			if time.Now().After(deadline) {
				t.Fatalf("node %d metrics endpoint never came up", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
		targets[i] = telemetry.Target{Node: i, Addr: addr(i)}
	}
	return targets
}

// TestLiveClusterCrossNodeJoin is the fleet-telemetry acceptance test: a
// 5-node UDP cluster on loopback, scraped over HTTP, must yield cross-node
// joined estimate→reply spans (≥95% of completed exchanges find their
// responder half) with zero causal-order violations, no asymmetry warnings
// and no stale epochs — an honest run reads clean end to end.
func TestLiveClusterCrossNodeJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test")
	}
	cl, err := livenet.NewCluster(livenet.ClusterConfig{
		N:          5,
		F:          1,
		SyncInt:    50 * time.Millisecond,
		MaxWait:    25 * time.Millisecond,
		WayOff:     time.Second,
		Key:        []byte("telemetry-live-test"),
		Offsets:    []time.Duration{2 * time.Millisecond, -1 * time.Millisecond, 500 * time.Microsecond, -2 * time.Millisecond, 0},
		Metrics:    true,
		SpanBuffer: 8192,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl.Start()
	defer cl.Stop()

	if err := cl.WaitConverged(10*time.Millisecond, 3, 30*time.Second); err != nil {
		t.Fatalf("cluster did not converge: %v", err)
	}
	targets := waitMetricsUp(t, 5, cl.MetricsAddr)
	sc := &telemetry.Scraper{Targets: targets}

	// Two rounds a sync interval apart: the second snapshot sees the
	// responder halves of any exchange that completed mid-first-scrape
	// (rings retain history, so only still-in-flight exchanges can dangle).
	ctx := context.Background()
	sc.Scrape(ctx)
	time.Sleep(100 * time.Millisecond)
	snap := sc.Scrape(ctx)
	for _, n := range snap.Nodes {
		if n.Err != nil {
			t.Fatalf("node %d scrape failed: %v", n.Target.Node, n.Err)
		}
	}

	al := telemetry.Align(snap, telemetry.AlignConfig{})
	if al.Completed < 20 {
		t.Fatalf("only %d completed exchanges captured; cluster too quiet for a meaningful join rate", al.Completed)
	}
	if rate := al.JoinRate(); rate < 0.95 {
		t.Errorf("cross-node span join rate = %.3f (%d/%d), want >= 0.95", rate, len(al.Pairs), al.Completed)
	}
	if al.Violations != 0 {
		for _, p := range al.Pairs {
			if p.Violated {
				t.Logf("violated pair: %+v", p)
			}
		}
		t.Errorf("causal-order violations = %d, want 0 on an honest run", al.Violations)
	}
	if len(al.Links) != 0 {
		t.Errorf("asymmetry warnings on symmetric loopback: %+v", al.Links)
	}
	if len(al.Stale) != 0 {
		t.Errorf("stale nodes in a live fleet: %+v", al.Stale)
	}

	// The merged counters must cover the whole fleet: five nodes past three
	// sync executions each.
	if got := snap.Merged().Value("clocksync_sync_rounds_total"); got < 15 {
		t.Errorf("merged sync rounds = %v, want >= 15", got)
	}
}

// oneWayDelay injects 100ms of extra one-way latency on the directed link
// 0→1 and ~0.5ms everywhere else — the classic asymmetric-path fault that
// symmetric-delay estimation cannot see from RTTs alone.
type oneWayDelay struct{}

func (oneWayDelay) Sample(from, to int, rng *network.SplitMix64) simtime.Duration {
	if from == 0 && to == 1 {
		return 0.100
	}
	return 0.0005
}
func (oneWayDelay) Bound() simtime.Duration { return 0.100 }

// TestAsymmetricDelayFlagsLinks pins the aligner's detection claim on a live
// in-memory cluster: under an injected one-way delay the honest protocol
// absorbs the skew into its uncertainty (zero causal violations), but the
// cross-node midpoint residuals expose it as link-asymmetry warnings. The
// equilibrium the convergence function settles into spreads the disagreement
// across the whole fleet (the delayed link shifts node 1's clock by ~D/3),
// so the test asserts detection — warnings fire — not localization.
func TestAsymmetricDelayFlagsLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test")
	}
	const n = 3
	mn := livenet.NewMemNetwork(livenet.MemNetworkConfig{Seed: 42, Delay: oneWayDelay{}})
	nodes := make([]*livenet.Node, n)
	for i := 0; i < n; i++ {
		peers := make(map[int]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = livenet.MemAddr(j)
			}
		}
		node, err := livenet.New(livenet.Config{
			ID:        i,
			F:         0,
			Peers:     peers,
			SyncInt:   350 * time.Millisecond,
			MaxWait:   150 * time.Millisecond,
			WayOff:    time.Second,
			Transport: mn.Transport(i),
			Ops:       livenet.OpsConfig{MetricsAddr: "127.0.0.1:0", SpanBuffer: 4096},
		})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		nodes[i] = node
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, node := range nodes {
		go node.Run(ctx)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		ready := true
		for _, node := range nodes {
			if node.Syncs() < 8 {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never reached 8 sync rounds: %d/%d/%d",
				nodes[0].Syncs(), nodes[1].Syncs(), nodes[2].Syncs())
		}
		time.Sleep(50 * time.Millisecond)
	}

	targets := waitMetricsUp(t, n, func(i int) string { return nodes[i].MetricsAddr() })
	snap := (&telemetry.Scraper{Targets: targets}).Scrape(ctx)
	for _, ns := range snap.Nodes {
		if ns.Err != nil {
			t.Fatalf("node %d scrape failed: %v", ns.Target.Node, ns.Err)
		}
	}

	al := telemetry.Align(snap, telemetry.AlignConfig{})
	if al.Completed == 0 || len(al.Pairs) == 0 {
		t.Fatalf("no joined pairs (completed=%d); nothing to analyze", al.Completed)
	}
	// Honest accounting first: the protocol widened its uncertainty to cover
	// the delay it could not decompose, so nothing violates causal order.
	if al.Violations != 0 {
		t.Errorf("causal violations = %d, want 0 (honest nodes absorb the delay)", al.Violations)
	}
	// Detection: ~±D/6 ≈ 16ms mean residuals dwarf the 5ms threshold.
	if len(al.Links) == 0 {
		t.Fatalf("no asymmetry warnings under a 100ms one-way delay; pairs=%d", len(al.Pairs))
	}
	for _, w := range al.Links {
		t.Logf("flagged: %s", w.String())
	}
}

// TestLiveExportFeedsTracestat closes the loop from a live scrape to the
// offline tooling: the JSONL export of a live snapshot must re-read as
// trace events with fleet-unique requester span ids.
func TestLiveExportFeedsTracestat(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test")
	}
	cl, err := livenet.NewCluster(livenet.ClusterConfig{
		N:          3,
		F:          0,
		SyncInt:    50 * time.Millisecond,
		MaxWait:    25 * time.Millisecond,
		WayOff:     time.Second,
		Metrics:    true,
		SpanBuffer: 4096,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl.Start()
	defer cl.Stop()
	if err := cl.WaitConverged(10*time.Millisecond, 2, 30*time.Second); err != nil {
		t.Fatalf("cluster did not converge: %v", err)
	}
	targets := waitMetricsUp(t, 3, cl.MetricsAddr)
	snap := (&telemetry.Scraper{Targets: targets}).Scrape(context.Background())

	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, snap); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("re-reading live export: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("live export is empty")
	}
	// Requester-side spans must be fleet-unique after namespacing; reply
	// spans deliberately share their requester's id.
	seen := make(map[uint64]bool)
	for _, e := range events {
		if e.Name == "reply" || e.Name == "serve" || e.Span == 0 {
			continue
		}
		if seen[e.Span] {
			t.Fatalf("duplicate exported span id %d (%s on node %d)", e.Span, e.Name, e.Node)
		}
		seen[e.Span] = true
	}
}
