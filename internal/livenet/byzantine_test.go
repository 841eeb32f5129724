package livenet

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"clocksync/internal/network"
	"clocksync/internal/simtime"
)

// liarResponder is a raw UDP endpoint that speaks the wire protocol but
// reports wildly wrong clocks — a live Byzantine peer.
type liarResponder struct {
	conn *net.UDPConn
	key  []byte
	skew time.Duration
}

func startLiar(t *testing.T, key []byte, skew time.Duration) *liarResponder {
	t.Helper()
	addr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	l := &liarResponder{conn: conn, key: key, skew: skew}
	go l.serve()
	t.Cleanup(func() { conn.Close() })
	return l
}

func (l *liarResponder) serve() {
	buf := make([]byte, 2048)
	signer := newSyncSigner(l.key)
	for {
		nr, raddr, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		msg, _, err := decodeSync(buf[:nr])
		if err != nil || msg.reply {
			continue
		}
		resp := syncMsg{
			reply: true,
			from:  3, // its own claimed id
			nonce: msg.nonce,
			clock: time.Now().Add(l.skew).UnixNano(),
		}
		l.conn.WriteToUDP(signer.encode(resp), raddr)
	}
}

func TestLiveClusterToleratesByzantinePeer(t *testing.T) {
	// Three honest nodes plus one raw liar claiming to be hours away. With
	// n=4, f=1, the (f+1)-trimming discards the lie and the honest trio
	// converges tightly.
	key := []byte("byz-test-key")
	liar := startLiar(t, key, 3*time.Hour)

	offsets := []time.Duration{-60 * time.Millisecond, 0, 80 * time.Millisecond}
	nodes := make([]*Node, 3)
	for i := range nodes {
		node, err := New(Config{
			ID:        i,
			F:         1,
			Listen:    "127.0.0.1:0",
			SyncInt:   200 * time.Millisecond,
			MaxWait:   100 * time.Millisecond,
			WayOff:    2 * time.Second,
			Key:       key,
			SimOffset: offsets[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i, node := range nodes {
		peers := map[int]string{3: liar.conn.LocalAddr().String()}
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
			t.Fatalf("honest trio did not converge against the liar: %v %v %v",
				nodes[0].Offset(), nodes[1].Offset(), nodes[2].Offset())
		case <-time.After(100 * time.Millisecond):
		}
		if nodes[0].Syncs() < 4 {
			continue
		}
		if spreadOf(nodes) < 20*time.Millisecond {
			// The liar must not have dragged the trio toward +3h either.
			for i, n := range nodes {
				if n.Offset() > time.Second {
					t.Fatalf("node %d dragged to %v by the liar", i, n.Offset())
				}
			}
			return
		}
	}
}

// slowHonestLinks delays every packet by 5 ms except the liar's, which
// arrive at once — so whatever the liar says about a nonce is heard before
// the honest answer to it.
type slowHonestLinks struct{ liar int }

func (m slowHonestLinks) Sample(from, _ int, _ *network.SplitMix64) simtime.Duration {
	if from == m.liar {
		return 0
	}
	return 5 * simtime.Millisecond
}
func (slowHonestLinks) Bound() simtime.Duration { return 5 * simtime.Millisecond }

// TestEchoedNoncesCancelNothing: a keyed Byzantine peer that never answers
// its own ping but echoes the neighbouring nonces — the ones the requester
// just sent to honest peers — under its own id. Nonces are sequential, so it
// guesses them all; every echo authenticates. An echo must be refused without
// consuming the nonce it names: the honest answers, arriving 10 ms later,
// must still land, so honest peers never time out and no round is skipped.
func TestEchoedNoncesCancelNothing(t *testing.T) {
	const liar = 3
	key := []byte("echo-test-key")
	mn := NewMemNetwork(MemNetworkConfig{Delay: slowHonestLinks{liar: liar}})
	liarTr := mn.Transport(liar)
	defer liarTr.Close()
	go func() {
		buf := make([]byte, 2048)
		signer := newSyncSigner(key)
		for {
			nr, from, err := liarTr.ReadFrom(buf)
			if err != nil {
				return
			}
			msg, _, err := decodeSync(buf[:nr])
			if err != nil || msg.reply {
				continue
			}
			for d := uint64(1); d <= 3; d++ {
				for _, nonce := range []uint64{msg.nonce - d, msg.nonce + d} {
					echo := syncMsg{reply: true, from: liar, nonce: nonce,
						clock: time.Now().Add(time.Hour).UnixNano()}
					liarTr.WriteTo(signer.encode(echo), from)
				}
			}
		}
	}()

	nodes := make([]*Node, 3)
	for i := range nodes {
		peers := map[int]string{}
		for j := 0; j <= liar; j++ {
			if j != i {
				peers[j] = MemAddr(j)
			}
		}
		node, err := New(Config{
			ID: i, F: 1, Peers: peers, Key: key, Transport: mn.Transport(i),
			SyncInt: 100 * time.Millisecond, MaxWait: 50 * time.Millisecond, WayOff: time.Second,
			// One attempt per peer: a cancelled ping has no retransmission to
			// hide behind.
			Retry: RetryConfig{Attempts: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	for _, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Run(ctx)
		}()
	}

	deadline := time.After(10 * time.Second)
	for _, node := range nodes {
		for node.Metrics().SyncRounds.Load()+node.Metrics().RoundsSkipped.Load() < 5 {
			select {
			case <-deadline:
				t.Fatal("rounds did not run")
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	for i, node := range nodes {
		if skipped := node.Metrics().RoundsSkipped.Load(); skipped != 0 {
			t.Errorf("node %d skipped %d rounds: the liar pushed it below 2f+1", i, skipped)
		}
		if node.Metrics().RepliesRefused.Load() == 0 {
			t.Errorf("node %d refused none of the liar's echoes on its counter", i)
		}
		for _, p := range node.Statusz().Peers {
			if p.ID != liar && p.Failures != 0 {
				t.Errorf("node %d: honest peer %d timed out %d times — its pings were cancelled", i, p.ID, p.Failures)
			}
			if p.ID == liar && p.Replies != 0 {
				t.Errorf("node %d: accepted %d of the liar's echoes as answers", i, p.Replies)
			}
		}
	}
}

func TestStatusSnapshot(t *testing.T) {
	nodes, _ := startCluster(t, 4, 1, []time.Duration{0, 10 * time.Millisecond, 0, 0}, []byte("k"))
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no syncs completed")
		case <-time.After(100 * time.Millisecond):
		}
		if nodes[0].Syncs() >= 2 {
			break
		}
	}
	st := nodes[0].Statusz()
	if st.ID != 0 || st.Syncs < 2 {
		t.Fatalf("status header: %+v", st)
	}
	if len(st.Peers) != 3 {
		t.Fatalf("peers: %+v", st.Peers)
	}
	sawReply := false
	for _, p := range st.Peers {
		if p.Replies > 0 {
			sawReply = true
			if p.AgeSec > 5 {
				t.Fatalf("stale AgeSec: %+v", p)
			}
		}
	}
	if !sawReply {
		t.Fatalf("no peer replies recorded: %+v", st.Peers)
	}
}
