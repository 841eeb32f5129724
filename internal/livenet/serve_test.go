package livenet

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"clocksync/internal/adversary"
)

// TestServePacketGolden pins the serve wire format byte for byte: an encoder
// change that shifts a field or flips endianness must fail here, not in a
// cross-version deployment.
func TestServePacketGolden(t *testing.T) {
	q := ServeQuery{Nonce: 0x0102030405060708, T1: 0x1122334455667788}
	wantQ := "4353" + "01" + "01" + // magic, version, mode=query
		"0102030405060708" + // nonce
		"1122334455667788" // t1
	gotQ := EncodeServeQuery(make([]byte, ServeQuerySize), q)
	if hex.EncodeToString(gotQ) != wantQ {
		t.Fatalf("query encoding\n got %s\nwant %s", hex.EncodeToString(gotQ), wantQ)
	}
	backQ, err := DecodeServeQuery(gotQ)
	if err != nil || backQ != q {
		t.Fatalf("query roundtrip: got %+v, %v; want %+v", backQ, err, q)
	}

	r := ServeReply{
		Nonce:       0x0102030405060708,
		T1:          0x1122334455667788,
		T2:          0x2122232425262728,
		T3:          0x3132333435363738,
		Uncertainty: 0x0000000000000fff,
		Epoch:       0x00000000000000aa,
		Node:        7,
	}
	wantR := "4353" + "01" + "02" + // magic, version, mode=reply
		"0102030405060708" + // nonce
		"1122334455667788" + // t1
		"2122232425262728" + // t2
		"3132333435363738" + // t3
		"0000000000000fff" + // uncertainty (ns)
		"00000000000000aa" + // epoch
		"00000007" // node
	gotR := EncodeServeReply(make([]byte, ServeReplySize), r)
	if hex.EncodeToString(gotR) != wantR {
		t.Fatalf("reply encoding\n got %s\nwant %s", hex.EncodeToString(gotR), wantR)
	}
	backR, err := DecodeServeReply(gotR)
	if err != nil || backR != r {
		t.Fatalf("reply roundtrip: got %+v, %v; want %+v", backR, err, r)
	}
}

// TestServePacketGoldenTraced pins the trace-context extension byte for
// byte: exactly 12 extra bytes (span id, origin node) appended past the
// untraced layout, which stays bit-identical underneath.
func TestServePacketGoldenTraced(t *testing.T) {
	q := ServeQuery{
		Nonce: 0x0102030405060708, T1: 0x1122334455667788,
		Traced: true, Span: 0xa1a2a3a4a5a6a7a8, Origin: 9,
	}
	wantQ := "4353" + "01" + "01" + // magic, version, mode=query
		"0102030405060708" + // nonce
		"1122334455667788" + // t1
		"a1a2a3a4a5a6a7a8" + // ext: span
		"00000009" // ext: origin
	gotQ := EncodeServeQuery(make([]byte, ServeQueryMaxSize), q)
	if hex.EncodeToString(gotQ) != wantQ {
		t.Fatalf("traced query encoding\n got %s\nwant %s", hex.EncodeToString(gotQ), wantQ)
	}
	backQ, err := DecodeServeQuery(gotQ)
	if err != nil || backQ != q {
		t.Fatalf("traced query roundtrip: got %+v, %v; want %+v", backQ, err, q)
	}

	r := ServeReply{
		Nonce: 0x0102030405060708, T1: 0x1122334455667788,
		T2: 0x2122232425262728, T3: 0x3132333435363738,
		Uncertainty: 0xfff, Epoch: 0xaa, Node: 7,
		Traced: true, Span: 0xa1a2a3a4a5a6a7a8, Origin: 9,
	}
	wantR := "4353" + "01" + "02" +
		"0102030405060708" + "1122334455667788" +
		"2122232425262728" + "3132333435363738" +
		"0000000000000fff" + "00000000000000aa" + "00000007" +
		"a1a2a3a4a5a6a7a8" + "00000009" // ext: span, origin
	gotR := EncodeServeReply(make([]byte, ServeReplyMaxSize), r)
	if hex.EncodeToString(gotR) != wantR {
		t.Fatalf("traced reply encoding\n got %s\nwant %s", hex.EncodeToString(gotR), wantR)
	}
	backR, err := DecodeServeReply(gotR)
	if err != nil || backR != r {
		t.Fatalf("traced reply roundtrip: got %+v, %v; want %+v", backR, err, r)
	}

	// Truncating the extension mid-way is a length error, not a silent
	// fallback to the untraced layout.
	if _, err := DecodeServeQuery(gotQ[:ServeQuerySize+6]); !errors.Is(err, ErrServeBadLength) {
		t.Errorf("half-extension query: err = %v, want %v", err, ErrServeBadLength)
	}
}

// TestServeDecodeRejects pins the decoder's rejection surface: truncation,
// padding, foreign magic, future versions and crossed modes all error
// without panicking.
func TestServeDecodeRejects(t *testing.T) {
	valid := EncodeServeQuery(make([]byte, ServeQuerySize), ServeQuery{Nonce: 1, T1: 2})
	validReply := EncodeServeReply(make([]byte, ServeReplySize), ServeReply{Nonce: 1})
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrServeBadMagic},
		{"one byte", []byte{0x43}, ErrServeBadMagic},
		{"json wire", []byte(`{"v":1}`), ErrServeBadMagic},
		{"truncated query", valid[:ServeQuerySize-1], ErrServeBadLength},
		{"oversized query", append(append([]byte{}, valid...), 0), ErrServeBadLength},
		{"bad version", func() []byte {
			b := append([]byte{}, valid...)
			b[serveOffVersion] = 99
			return b
		}(), ErrServeBadVersion},
		{"reply to query decoder", func() []byte {
			// A reply truncated to query length still has mode=reply.
			b := append([]byte{}, validReply[:ServeQuerySize]...)
			return b
		}(), ErrServeBadMode},
	}
	for _, tc := range cases {
		if _, err := DecodeServeQuery(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeServeQuery err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeServeReply(valid); !errors.Is(err, ErrServeBadLength) {
		t.Errorf("query to reply decoder: err = %v, want %v", err, ErrServeBadLength)
	}
	if _, err := DecodeServeReply(validReply[:ServeReplySize-8]); !errors.Is(err, ErrServeBadLength) {
		t.Errorf("truncated reply: err = %v, want %v", err, ErrServeBadLength)
	}
}

// TestServePacketCodecAllocFree pins the wire codec: one query decode plus
// one reply encode into a caller buffer — the per-packet CPU the serve loop
// spends beyond the two snapshot reads — never allocates.
func TestServePacketCodecAllocFree(t *testing.T) {
	var qbuf [ServeQuerySize]byte
	var rbuf [ServeReplySize]byte
	pkt := EncodeServeQuery(qbuf[:], ServeQuery{Nonce: 7, T1: 1234567890})
	allocs := testing.AllocsPerRun(1000, func() {
		q, err := DecodeServeQuery(pkt)
		if err != nil {
			t.Fatal(err)
		}
		EncodeServeReply(rbuf[:], ServeReply{
			Nonce: q.Nonce, T1: q.T1, T2: q.T1 + 1, T3: q.T1 + 2,
			Uncertainty: time.Millisecond, Epoch: 1, Node: 0,
		})
	})
	if allocs != 0 {
		t.Errorf("codec allocates: %v allocs/op, want 0", allocs)
	}
}

// FuzzServePacket throws arbitrary datagrams at every decoder of the "CS"
// packet family — serve query, serve reply and sync: they must never panic,
// and anything they accept must re-encode byte-identically (the format has
// no don't-care bits). Each datagram then goes through a keyed node's
// receive path with one ping outstanding: whatever reaches the round's
// queue, and so core.Round.Reply, must be a whole, authenticated reply from
// the peer the ping went to — never a refused or partly decoded packet.
func FuzzServePacket(f *testing.F) {
	f.Add(EncodeServeQuery(make([]byte, ServeQuerySize), ServeQuery{Nonce: 1, T1: -1}))
	f.Add(EncodeServeReply(make([]byte, ServeReplySize), ServeReply{Nonce: 2, T2: 3, Node: 4}))
	f.Add(EncodeServeQuery(make([]byte, ServeQueryMaxSize), ServeQuery{Nonce: 1, Traced: true, Span: 77, Origin: 5}))
	f.Add(EncodeServeReply(make([]byte, ServeReplyMaxSize), ServeReply{Nonce: 2, Traced: true, Span: 77, Origin: 5}))
	f.Add([]byte{0x43, 0x53})
	f.Add([]byte(`{"v":1,"t":"q"}`))
	f.Add(bytes.Repeat([]byte{0x43}, 4096))
	key := []byte("fuzz-key")
	const peer, nonce = 3, 2
	for _, s := range []*syncSigner{newSyncSigner(nil), newSyncSigner(key)} {
		f.Add(append([]byte(nil), s.encode(syncMsg{from: 1, nonce: nonce})...))
		f.Add(append([]byte(nil), s.encode(syncMsg{reply: true, from: peer, nonce: nonce, clock: -5})...))
		f.Add(append([]byte(nil), s.encode(syncMsg{from: 1, nonce: nonce, traced: true, span: 77, epoch: 9})...))
	}
	f.Add([]byte(`{"v":1,"t":"r","f":3,"n":2,"c":1735689600123456789,"m":"AAAA"}`))
	f.Add([]byte(`{"v":1,"t":"q","f":2,"n":7,"s":99,"e":5}`))

	// The node is never run: receive is called directly, and its answers go
	// to an address nobody owns.
	node, err := New(Config{ID: 0, Key: key, Transport: NewMemNetwork(MemNetworkConfig{}).Transport(0),
		SyncInt: time.Hour, MaxWait: time.Second, WayOff: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { node.Close() })
	signer := newSyncSigner(key)
	scratch := make([]byte, ServeReplyMaxSize)
	queue := make(chan liveReply, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Re-encode buffers are Max-sized: any accepted packet — traced or
		// not — must round-trip, and the encoder only uses the extension
		// bytes when Traced is set.
		if q, err := DecodeServeQuery(data); err == nil {
			back := EncodeServeQuery(make([]byte, ServeQueryMaxSize), q)
			if !bytes.Equal(back, data) {
				t.Fatalf("accepted query does not re-encode to itself:\n in %x\nout %x", data, back)
			}
		}
		if r, err := DecodeServeReply(data); err == nil {
			back := EncodeServeReply(make([]byte, ServeReplyMaxSize), r)
			if !bytes.Equal(back, data) {
				t.Fatalf("accepted reply does not re-encode to itself:\n in %x\nout %x", data, back)
			}
		}
		m, tag, err := decodeSync(data)
		if err == nil {
			if back := encodeSync(make([]byte, syncMaxSize), m, tag); !bytes.Equal(back, data) {
				t.Fatalf("accepted sync packet does not re-encode to itself:\n in %x\nout %x", data, back)
			}
		}

		node.mu.Lock()
		node.pending[nonce] = pendingPing{peer: peer, ch: queue}
		node.mu.Unlock()
		node.receive(data, MemAddr(99), scratch, signer)
		select {
		case rp := <-queue:
			whole := err == nil && m.reply && m.from == peer && m.nonce == nonce && rp.clock == m.clock
			if !whole || !bytes.Equal(tag, signer.tag(m)) {
				t.Fatalf("%x reached the round without being peer %d's signed reply to nonce %d", data, peer, nonce)
			}
		default:
		}
	})
}

// TestServeSharedSyncSocket exercises the no-configuration path: a query
// sent to a node's sync transport is answered from the same socket, and
// readings carry the node's epoch and a sane uncertainty.
func TestServeSharedSyncSocket(t *testing.T) {
	mn := NewMemNetwork(MemNetworkConfig{})
	n := readNode(t, Config{ID: 0, Transport: mn.Transport(0)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)

	c, err := NewClient(ClientConfig{Server: MemAddr(0), Transport: mn.Transport(42)})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	r, err := c.Query(context.Background())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r.Epoch != 0 {
		t.Errorf("epoch = %d, want 0 (no rounds run)", r.Epoch)
	}
	if r.Uncertainty <= 0 {
		t.Errorf("uncertainty = %v, want > 0", r.Uncertainty)
	}
	if gap := time.Since(r.Time); gap > time.Second || gap < -time.Second {
		t.Errorf("reading %v is nowhere near now", r.Time)
	}
	if got := n.Metrics().ServeQueries.Load(); got != 1 {
		t.Errorf("ServeQueries = %d, want 1", got)
	}
}

// TestServeDedicatedUDP exercises the production shape: a dedicated UDP
// serve endpoint on an OS-assigned port, queried by a UDP client.
func TestServeDedicatedUDP(t *testing.T) {
	n := readNode(t, Config{
		ID:     3,
		Listen: "127.0.0.1:0",
		Serve:  ServeConfig{Addr: "127.0.0.1:0"},
	})
	if n.ServeAddr() == "" {
		t.Fatal("ServeAddr empty with Serve.Addr configured")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)

	c, err := NewClient(ClientConfig{Server: n.ServeAddr(), Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	r, err := c.Query(context.Background())
	if err != nil {
		t.Fatalf("Query over UDP: %v", err)
	}
	if r.Uncertainty <= 0 {
		t.Errorf("uncertainty = %v, want > 0", r.Uncertainty)
	}
}

// TestClientReadInterpolates pins the client-side snapshot: before any query
// Read reports maximal uncertainty; after one, it interpolates with growing
// uncertainty and the queried epoch.
func TestClientReadInterpolates(t *testing.T) {
	mn := NewMemNetwork(MemNetworkConfig{})
	n := readNode(t, Config{ID: 0, Transport: mn.Transport(0)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)

	c, err := NewClient(ClientConfig{Server: MemAddr(0), Transport: mn.Transport(42)})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	if r := c.Read(); r.Uncertainty != maxUncertainty {
		t.Fatalf("unqueried client uncertainty = %v, want max", r.Uncertainty)
	}
	q, err := c.Query(context.Background())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	r1 := c.Read()
	if r1.Epoch != q.Epoch {
		t.Errorf("interpolated epoch %d, want %d", r1.Epoch, q.Epoch)
	}
	time.Sleep(5 * time.Millisecond)
	if r2 := c.Read(); r2.Uncertainty < r1.Uncertainty {
		t.Errorf("client uncertainty shrank without a query: %v -> %v", r1.Uncertainty, r2.Uncertainty)
	}
}

// TestServeQueryTimeout pins the failure path: a query into the void times
// out with the context error instead of hanging.
func TestServeQueryTimeout(t *testing.T) {
	mn := NewMemNetwork(MemNetworkConfig{})
	c, err := NewClient(ClientConfig{
		Server:    MemAddr(9), // nobody home
		Transport: mn.Transport(42),
		Timeout:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	if _, err := c.Query(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query to dead address: err = %v, want deadline exceeded", err)
	}
}

// TestServeUnderChaosContainsTruth is the serve-path acceptance run: a
// converged 4-node cluster queried through a FaultTransport injecting
// drops, duplicates, reorders and delays must — on every query that
// completes at all — return a Reading whose interval contains the true
// cluster time. Truth is the host clock: all nodes run with zero simulated
// offset, so the cluster's reference is the host itself.
func TestServeUnderChaosContainsTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos serve run needs ~2s of wall time")
	}
	mn := NewMemNetwork(MemNetworkConfig{Seed: 7})
	const nNodes = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < nNodes; i++ {
		n := readNode(t, Config{
			ID:        i,
			F:         1,
			Transport: mn.Transport(i),
			Peers:     memPeers(nNodes, i),
			SyncInt:   100 * time.Millisecond,
			MaxWait:   40 * time.Millisecond,
			WayOff:    2 * time.Second,
		})
		go n.Run(ctx)
	}

	// The client's link is the hostile part: ambient chaos on every packet,
	// both directions, driven by the deterministic per-packet fate hash.
	ft := NewFaultTransport(mn.Transport(99), FaultConfig{
		Seed: 7,
		Node: 99,
		Schedule: adversary.NetSchedule{Chaos: adversary.PacketChaos{
			DropP:    0.15,
			DupP:     0.10,
			ReorderP: 0.10,
			DelayMax: 0.002, // 2 ms extra, in simtime seconds at default scale
		}},
	})
	c, err := NewClient(ClientConfig{
		Server:    MemAddr(0),
		Transport: ft,
		Timeout:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	var ok, failed int
	for i := 0; i < 120; i++ {
		before := time.Now()
		r, err := c.Query(context.Background())
		after := time.Now()
		if err != nil {
			failed++
			continue
		}
		ok++
		// True time at the exchange's T4 lies in [before, after]; the
		// reading's interval must contain it.
		if r.Time.Add(r.Uncertainty).Before(before) || r.Time.Add(-r.Uncertainty).After(after) {
			t.Fatalf("query %d: reading %v ± %v excludes true time window [%v, %v]",
				i, r.Time, r.Uncertainty, before, after)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ok == 0 {
		t.Fatal("no query survived the chaos; the test proved nothing")
	}
	if failed == 0 {
		t.Log("warning: chaos injected no query failures this run")
	}
	t.Logf("chaos serve: %d readings contained truth, %d queries lost", ok, failed)
}

// memPeers builds the full-mesh peer table for node self on a MemNetwork.
func memPeers(n, self int) map[int]string {
	peers := make(map[int]string, n-1)
	for j := 0; j < n; j++ {
		if j != self {
			peers[j] = MemAddr(j)
		}
	}
	return peers
}
