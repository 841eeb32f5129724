package livenet

import (
	"context"
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// object decodes one JSON object into its raw members.
func object(t *testing.T, raw json.RawMessage) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not a JSON object: %s: %v", raw, err)
	}
	return m
}

// objects decodes a JSON array of objects.
func objects(t *testing.T, raw json.RawMessage) []map[string]json.RawMessage {
	t.Helper()
	var list []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("not a JSON array of objects: %s: %v", raw, err)
	}
	return list
}

// keysOf returns an object's keys, sorted and space-joined.
func keysOf(m map[string]json.RawMessage) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// sortedKeys normalizes a space-separated key list for comparison.
func sortedKeys(list string) string {
	keys := strings.Fields(list)
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestStatusDocumentSchema pins the status document's key sets: /statusz
// exactly (the fleet scraper's schema), /status at least the keys operators
// have always read from it.
func TestStatusDocumentSchema(t *testing.T) {
	nodes, _ := startCluster(t, 4, 1, nil, []byte("k"))
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	addr, err := nodes[0].ServeMetrics(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for nodes[0].Syncs() < 1 {
		select {
		case <-deadline:
			t.Fatal("no syncs")
		case <-time.After(50 * time.Millisecond):
		}
	}
	const peerKeys = "id last_offset_sec last_seen_age_sec replies failures dark"

	var doc map[string]json.RawMessage
	getJSON(t, addr, "/statusz", &doc)
	if got, want := keysOf(doc), sortedKeys("id epoch syncs time_unix_nano wall_unix_nano uncertainty_sec offset_sec last_adjust_sec last_round peers"); got != want {
		t.Errorf("/statusz keys = %q, want %q", got, want)
	}
	if got, want := keysOf(object(t, doc["last_round"])), sortedKeys("age_sec delta_sec failed wayoff skipped"); got != want {
		t.Errorf("/statusz last_round keys = %q, want %q", got, want)
	}
	peers := objects(t, doc["peers"])
	if len(peers) != 3 {
		t.Fatalf("/statusz peers = %s, want 3 entries", doc["peers"])
	}
	for _, p := range peers {
		if got, want := keysOf(p), sortedKeys(peerKeys); got != want {
			t.Errorf("/statusz peer keys = %q, want %q", got, want)
		}
	}

	var legacy map[string]json.RawMessage
	getJSON(t, addr, "/status", &legacy)
	for _, k := range strings.Fields("id syncs offset_sec last_adjust_sec peers") {
		if _, ok := legacy[k]; !ok {
			t.Errorf("/status lacks %q", k)
		}
	}
	peers = objects(t, legacy["peers"])
	if len(peers) != 3 {
		t.Fatalf("/status peers = %s, want 3 entries", legacy["peers"])
	}
	for _, p := range peers {
		for _, k := range strings.Fields(peerKeys) {
			if _, ok := p[k]; !ok {
				t.Errorf("/status peer %s lacks %q", keysOf(p), k)
			}
		}
	}
}

// TestStatusRoutesServeOneDocument: /status and /statusz are one document.
func TestStatusRoutesServeOneDocument(t *testing.T) {
	nodes, _ := startCluster(t, 4, 1, nil, []byte("k"))
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	addr, err := nodes[0].ServeMetrics(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for nodes[0].Syncs() < 1 {
		select {
		case <-deadline:
			t.Fatal("no syncs")
		case <-time.After(50 * time.Millisecond):
		}
	}
	ids := func(st Statusz) []int {
		var out []int
		for _, p := range st.Peers {
			out = append(out, p.ID)
		}
		return out
	}
	// A round may complete between the two scrapes; retry until a pair
	// straddles none.
	var status, statusz Statusz
	for attempt := 0; attempt < 10; attempt++ {
		getJSON(t, addr, "/status", &status)
		getJSON(t, addr, "/statusz", &statusz)
		if status.Syncs == statusz.Syncs {
			break
		}
	}
	if status.ID != statusz.ID || status.Syncs != statusz.Syncs || !slices.Equal(ids(status), ids(statusz)) {
		t.Fatalf("/status %+v and /statusz %+v differ", status, statusz)
	}
	if !slices.Equal(ids(status), []int{1, 2, 3}) {
		t.Fatalf("peer ids %v, want [1 2 3]", ids(status))
	}
}

// TestSetPeersKeepsRetainedPeerState: replacing the peer table keeps the
// record of every peer that stays, drops a removed peer's record, and starts
// a new (or re-added) peer from zero.
func TestSetPeersKeepsRetainedPeerState(t *testing.T) {
	mn := NewMemNetwork(MemNetworkConfig{})
	nodes := make(map[int]*Node)
	for id, peers := range map[int][]int{0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}} {
		table := make(map[int]string)
		for _, p := range peers {
			table[p] = MemAddr(p)
		}
		node, err := New(Config{
			ID: id, Peers: table, Transport: mn.Transport(id), DarkAfter: 1,
			SyncInt: 20 * time.Millisecond, MaxWait: 10 * time.Millisecond, WayOff: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
	}
	ctx, cancel := context.WithCancel(context.Background())
	ctx1, stop1 := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	for id, node := range nodes {
		runCtx := ctx
		if id == 1 {
			runCtx = ctx1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Run(runCtx)
		}()
	}
	node := nodes[0]
	waitFor := func(what string, cond func(p1 StatuszPeer) bool) {
		deadline := time.After(10 * time.Second)
		for !cond(node.Statusz().Peers[0]) {
			select {
			case <-deadline:
				t.Fatalf("timed out waiting for %s: %+v", what, node.Statusz().Peers)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	// Peer 1 answers, then stops and is written off as dark.
	waitFor("peer 1 to answer", func(p1 StatuszPeer) bool { return p1.Replies > 0 })
	stop1()
	waitFor("peer 1 to go dark", func(p1 StatuszPeer) bool { return p1.Dark })
	cancel()
	wg.Wait()

	before := node.Statusz().Peers
	if err := node.SetPeers(map[int]string{1: MemAddr(1), 2: MemAddr(2), 4: MemAddr(4)}); err != nil {
		t.Fatal(err)
	}
	after := node.Statusz().Peers
	if len(after) != 3 || after[0].ID != 1 || after[1].ID != 2 || after[2].ID != 4 {
		t.Fatalf("peers after SetPeers = %+v, want ids 1, 2, 4", after)
	}
	for i, b := range before[:2] {
		a := after[i]
		if a.Replies != b.Replies || a.Failures != b.Failures || a.Dark != b.Dark || a.OffsetSec != b.OffsetSec {
			t.Errorf("peer %d record not kept: before %+v, after %+v", b.ID, b, a)
		}
	}
	if !after[0].Dark || after[0].Replies == 0 || after[1].Replies == 0 {
		t.Errorf("kept records lost their history: %+v", after)
	}
	if fresh := (StatuszPeer{ID: 4, AgeSec: -1}); after[2] != fresh {
		t.Errorf("new peer 4 = %+v, want %+v", after[2], fresh)
	}

	// Peer 3's record went with it: re-added, it starts from zero.
	if err := node.SetPeers(map[int]string{1: MemAddr(1), 2: MemAddr(2), 3: MemAddr(3)}); err != nil {
		t.Fatal(err)
	}
	if re, fresh := node.Statusz().Peers[2], (StatuszPeer{ID: 3, AgeSec: -1}); re != fresh {
		t.Errorf("re-added peer 3 = %+v, want %+v", re, fresh)
	}
}
