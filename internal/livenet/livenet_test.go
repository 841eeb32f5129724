package livenet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"
)

// startCluster launches n live nodes on loopback with OS-assigned ports.
func startCluster(t *testing.T, n, f int, offsets []time.Duration, key []byte) ([]*Node, context.CancelFunc) {
	t.Helper()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		var off time.Duration
		if i < len(offsets) {
			off = offsets[i]
		}
		node, err := New(Config{
			ID:        i,
			F:         f,
			Listen:    "127.0.0.1:0",
			SyncInt:   200 * time.Millisecond,
			MaxWait:   100 * time.Millisecond,
			WayOff:    500 * time.Millisecond,
			Key:       key,
			SimOffset: off,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i, node := range nodes {
		peers := make(map[int]string)
		for j, other := range nodes {
			if j != i {
				peers[j] = other.Addr()
			}
		}
		if err := node.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, node := range nodes {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("node run: %v", err)
			}
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
	return nodes, cancel
}

func spreadOf(nodes []*Node) time.Duration { return (&Cluster{nodes: nodes}).Spread() }

func TestLiveClusterConverges(t *testing.T) {
	offsets := []time.Duration{
		-80 * time.Millisecond, 40 * time.Millisecond, 0, 90 * time.Millisecond,
	}
	nodes, _ := startCluster(t, 4, 1, offsets, []byte("test-key"))

	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatalf("cluster did not converge: spread=%v", spreadOf(nodes))
		case <-time.After(100 * time.Millisecond):
		}
		allSynced := true
		for _, n := range nodes {
			if n.Syncs() < 3 {
				allSynced = false
			}
		}
		if allSynced && spreadOf(nodes) < 20*time.Millisecond {
			return // converged
		}
	}
}

func TestLiveClusterRejectsUnauthenticated(t *testing.T) {
	// Two clusters sharing ports but different keys: node with the wrong key
	// must be ignored. Simplest check: a 4-node cluster where one node has a
	// different key — its answers are dropped by the other three, so they
	// converge among themselves while it cannot pull them anywhere.
	nodes := make([]*Node, 4)
	for i := range nodes {
		key := []byte("right-key")
		if i == 3 {
			key = []byte("wrong-key")
		}
		node, err := New(Config{
			ID:        i,
			F:         1,
			Listen:    "127.0.0.1:0",
			SyncInt:   200 * time.Millisecond,
			MaxWait:   100 * time.Millisecond,
			WayOff:    500 * time.Millisecond,
			Key:       key,
			SimOffset: time.Duration(i) * 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i, node := range nodes {
		peers := make(map[int]string)
		for j, other := range nodes {
			if j != i {
				peers[j] = other.Addr()
			}
		}
		if err := node.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	for _, node := range nodes {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Run(ctx)
		}()
	}

	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatalf("good trio did not converge: %v %v %v",
				nodes[0].Offset(), nodes[1].Offset(), nodes[2].Offset())
		case <-time.After(100 * time.Millisecond):
		}
		good := nodes[:3]
		if spreadOf(good) < 20*time.Millisecond && nodes[0].Syncs() >= 3 {
			return
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Listen: "127.0.0.1:0"}, // zero intervals
		{Listen: "127.0.0.1:0", SyncInt: time.Second, MaxWait: time.Second, WayOff: 1},    // SyncInt < 2·MaxWait
		{Listen: "127.0.0.1:0", SyncInt: time.Second, MaxWait: 100e6, WayOff: 1e9, F: -1}, // negative f
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(Config{Listen: "not-an-address:::", SyncInt: time.Second,
		MaxWait: 100 * time.Millisecond, WayOff: time.Second}); err == nil {
		t.Error("bad listen address accepted")
	}
}

func TestRunRequiresQuorumOfPeers(t *testing.T) {
	node, err := New(Config{
		ID: 0, F: 1, Listen: "127.0.0.1:0",
		SyncInt: time.Second, MaxWait: 100 * time.Millisecond, WayOff: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := node.Run(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run without peers must fail fast, got %v", err)
	}
	if err := node.SetPeers(map[int]string{1: "127.0.0.1:1", 2: "127.0.0.1:2"}); err == nil {
		t.Fatal("SetPeers below 3f+1 accepted")
	}
}

// TestServeStatusEndpoint covers the /status route of the observability
// endpoint (ServeMetrics), the operator URL of the Statusz document.
func TestServeStatusEndpoint(t *testing.T) {
	nodes, cancel := startCluster(t, 4, 1, []time.Duration{5 * time.Millisecond}, []byte("k"))
	defer cancel()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	addr, err := nodes[0].ServeMetrics(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for nodes[0].Syncs() < 2 {
		select {
		case <-deadline:
			t.Fatal("no syncs")
		case <-time.After(50 * time.Millisecond):
		}
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status code %d", resp.StatusCode)
	}
	var decoded struct {
		ID    int `json:"id"`
		Syncs int `json:"syncs"`
		Peers []struct {
			ID      int `json:"id"`
			Replies int `json:"replies"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != 0 || decoded.Syncs < 2 || len(decoded.Peers) != 3 {
		t.Fatalf("status payload: %+v", decoded)
	}
}

func TestSimulatedDrift(t *testing.T) {
	node, err := New(Config{
		ID: 0, F: 0, Listen: "127.0.0.1:0",
		SyncInt: time.Second, MaxWait: 100 * time.Millisecond, WayOff: time.Second,
		SimOffset: 50 * time.Millisecond, SimDriftPPM: 1e6, // 1 s/s drift for test speed
	})
	if err != nil {
		t.Fatal(err)
	}
	o1 := node.Offset()
	time.Sleep(50 * time.Millisecond)
	o2 := node.Offset()
	grown := o2 - o1
	if grown < 20*time.Millisecond {
		t.Fatalf("drift not applied: grew %v in 50ms at 1e6 ppm", grown)
	}
	if o1 < 45*time.Millisecond {
		t.Fatalf("offset not applied: %v", o1)
	}
}
