package livenet

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// macCase is one sync message whose tag TestWireMACGolden pins: the fields
// the MAC covers plus trace context, which it must not.
type macCase struct {
	reply       bool
	from        uint32
	nonce       uint64
	clock       int64
	span, epoch uint64
}

// macCases spans the edges of every covered field, for queries and replies,
// each with and without trace context.
var macCases = []macCase{
	{from: 2, nonce: 7},
	{from: 2, nonce: 7, span: 99, epoch: 5},
	{from: 0, nonce: 0},
	{from: math.MaxUint32, nonce: math.MaxUint64},
	{from: 1, nonce: 0x0102030405060708, span: math.MaxUint64, epoch: math.MaxUint64},
	{reply: true, from: 3, nonce: 7, clock: 1735689600123456789},
	{reply: true, from: 3, nonce: 7, clock: 1735689600123456789, span: 99, epoch: 5},
	{reply: true, from: 0, nonce: 0, clock: 0},
	{reply: true, from: 6, nonce: 1, clock: -1},
	{reply: true, from: math.MaxUint32, nonce: math.MaxUint64, clock: math.MinInt64},
	{reply: true, from: 1, nonce: 0x0102030405060708, clock: math.MaxInt64, span: 1, epoch: 0},
}

// macTag is the tag a node keyed with key puts on the wire for c: encoded by
// its signer and read back out of the packet.
func macTag(key []byte, c macCase) []byte {
	m := syncMsg{reply: c.reply, from: c.from, nonce: c.nonce, clock: c.clock,
		traced: c.span != 0 || c.epoch != 0, span: c.span, epoch: c.epoch}
	_, tag, err := decodeSync(newSyncSigner(key).encode(m))
	if err != nil {
		return []byte(err.Error())
	}
	return tag
}

// TestWireMACGolden pins the sync wire's authentication tags byte for byte,
// so nodes built before and after a codec change still authenticate each
// other under one key. The golden file was written from the JSON wire's
// signer; any signer must reproduce it.
//
//	go test ./internal/livenet -run TestWireMACGolden -update
func TestWireMACGolden(t *testing.T) {
	key := []byte("wire-mac-golden-key")
	var out bytes.Buffer
	for _, c := range macCases {
		kind := "q"
		if c.reply {
			kind = "r"
		}
		fmt.Fprintf(&out, "%s from=%d nonce=%d clock=%d span=%d epoch=%d tag=%x\n",
			kind, c.from, c.nonce, c.clock, c.span, c.epoch, macTag(key, c))
	}

	goldenPath := filepath.Join("testdata", "wire_mac.golden")
	if *update {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("sync MAC tags differ from golden:\n got:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}

// wireGolden is the base layout of a sync packet with the test messages'
// fields: header, from, clock.
func wireGolden(mode string) string {
	return "4353" + "01" + mode + // magic, version, mode
		"0102030405060708" + // nonce
		"0a0b0c0d" + // from
		"1122334455667788" // clock
}

// checkWire encodes m with signer s and requires want's bytes back; the
// packet must then decode to m with the tag s computed.
func checkWire(t *testing.T, name string, s *syncSigner, m syncMsg, want string) {
	t.Helper()
	got := s.encode(m)
	if hex.EncodeToString(got) != want {
		t.Errorf("%s encoding\n got %x\nwant %s", name, got, want)
		return
	}
	back, tag, err := decodeSync(got)
	if err != nil || back != m {
		t.Errorf("%s roundtrip: got %+v, %v; want %+v", name, back, err, m)
	}
	if !s.verify(back, tag) {
		t.Errorf("%s does not verify under its own key", name)
	}
}

// TestWireUntracedBytesUnchanged pins the untraced sync wire byte for byte:
// a query and a reply are the 24-byte base layout, and a keyed node appends
// the 32-byte tag and nothing else. An encoder change that shifts a field,
// flips endianness or moves the tag must fail here, not in a mixed-version
// cluster.
func TestWireUntracedBytesUnchanged(t *testing.T) {
	q := syncMsg{from: 0x0a0b0c0d, nonce: 0x0102030405060708, clock: 0x1122334455667788}
	r := q
	r.reply = true
	unkeyed := newSyncSigner(nil)
	checkWire(t, "untraced query", unkeyed, q, wireGolden("03"))
	checkWire(t, "untraced reply", unkeyed, r, wireGolden("04"))

	keyed := newSyncSigner([]byte("wire-golden-key"))
	checkWire(t, "keyed untraced query", keyed, q, wireGolden("03")+hex.EncodeToString(keyed.tag(q)))
	checkWire(t, "keyed untraced reply", keyed, r, wireGolden("04")+hex.EncodeToString(keyed.tag(r)))
}

// TestWireOldGoldenPacketsParse pins the trace trailer byte for byte: exactly
// 16 bytes (span, epoch) after everything else — after the tag on a keyed
// node — with the untraced layout bit-identical underneath. Golden packets
// of all four lengths parse back to their fields.
func TestWireOldGoldenPacketsParse(t *testing.T) {
	q := syncMsg{from: 0x0a0b0c0d, nonce: 0x0102030405060708, clock: 0x1122334455667788,
		traced: true, span: 0xa1a2a3a4a5a6a7a8, epoch: 0xb1b2b3b4b5b6b7b8}
	r := q
	r.reply = true
	trailer := "a1a2a3a4a5a6a7a8" + "b1b2b3b4b5b6b7b8" // span, epoch
	unkeyed := newSyncSigner(nil)
	checkWire(t, "traced query", unkeyed, q, wireGolden("03")+trailer)
	checkWire(t, "traced reply", unkeyed, r, wireGolden("04")+trailer)

	keyed := newSyncSigner([]byte("wire-golden-key"))
	checkWire(t, "keyed traced query", keyed, q, wireGolden("03")+hex.EncodeToString(keyed.tag(q))+trailer)
	checkWire(t, "keyed traced reply", keyed, r, wireGolden("04")+hex.EncodeToString(keyed.tag(r))+trailer)

	// Cutting the trailer short is a length error, not a fall back to the
	// untraced layout.
	pkt := unkeyed.encode(q)
	if _, _, err := decodeSync(pkt[:len(pkt)-6]); !errors.Is(err, ErrServeBadLength) {
		t.Errorf("half-trailer packet: err = %v, want %v", err, ErrServeBadLength)
	}
}

// TestWireTraceContextOutsideMAC pins the authentication boundary: the HMAC
// covers the protocol fields only, so adding (or forging) trace context
// neither changes a message's tag nor invalidates it. Trace context is
// observability metadata — a forger can pollute telemetry, never clocks.
func TestWireTraceContextOutsideMAC(t *testing.T) {
	s := newSyncSigner([]byte("wire-mac-key"))
	tagOf := func(m syncMsg) []byte { return append([]byte(nil), s.tag(m)...) }
	plain := syncMsg{from: 2, nonce: 7}
	traced := syncMsg{from: 2, nonce: 7, traced: true, span: 99, epoch: 5}
	if !bytes.Equal(tagOf(plain), tagOf(traced)) {
		t.Error("trace context changed the MAC; traced and untraced nodes cannot interoperate under one key")
	}
	forged := traced
	forged.span = 0xdeadbeef
	if !bytes.Equal(tagOf(traced), tagOf(forged)) {
		t.Error("span id is MAC-covered; it must not be (observability metadata only)")
	}
	// A forged trailer on a signed packet still authenticates.
	pkt := append([]byte(nil), s.encode(traced)...)
	pkt[len(pkt)-syncTraceSize] ^= 0xff
	if m, tag, err := decodeSync(pkt); err != nil || m.span == traced.span || !s.verify(m, tag) {
		t.Errorf("forged trailer: err %v, span %d, verified %v; want a changed span that verifies", err, m.span, s.verify(m, tag))
	}
	// The protocol fields are covered.
	other := plain
	other.nonce = 8
	if bytes.Equal(tagOf(plain), tagOf(other)) {
		t.Error("nonce not covered by MAC")
	}
}

// TestSyncWireAllocFree pins the sync codec: encode + sign of a query and a
// reply, and decode + verify of both, allocate nothing once the signer is
// built — the per-packet cost the live round pays twice for every peer.
func TestSyncWireAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	tx := newSyncSigner([]byte("alloc-key"))
	rx := newSyncSigner([]byte("alloc-key"))
	allocs := testing.AllocsPerRun(1000, func() {
		mq, tag, err := decodeSync(tx.encode(syncMsg{from: 1, nonce: 7, traced: true, span: 3, epoch: 4}))
		if err != nil || !rx.verify(mq, tag) {
			t.Fatalf("query refused: %v", err)
		}
		mr, tag, err := decodeSync(rx.encode(syncMsg{reply: true, from: 2, nonce: mq.nonce, clock: 1234567890}))
		if err != nil || !tx.verify(mr, tag) {
			t.Fatalf("reply refused: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("sync codec allocates: %v allocs/op, want 0", allocs)
	}
}

// TestWireRefusesLoudly drives refused datagrams into a running keyed node
// and checks each lands on its counter: decode refusals in MessagesDropped,
// a bad or missing tag in AuthFailures (and MessagesDropped), and an
// authenticated reply the node cannot use — wrong peer, unknown nonce,
// replay — in RepliesRefused. None reaches the protocol.
func TestWireRefusesLoudly(t *testing.T) {
	key := []byte("loud-key")
	mn := NewMemNetwork(MemNetworkConfig{})
	n := readNode(t, Config{ID: 0, Key: key, Transport: mn.Transport(0), SyncInt: time.Hour, MaxWait: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)
	peer := mn.Transport(1)
	defer peer.Close()
	signer := newSyncSigner(key)
	rec := n.Metrics()

	// expect sends pkt to the node and waits until the three refusal
	// counters read want (dropped, auth, refused).
	expect := func(name string, pkt []byte, want [3]int64) {
		t.Helper()
		if err := peer.WriteTo(pkt, MemAddr(0)); err != nil {
			t.Fatal(err)
		}
		var got [3]int64
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			got = [3]int64{rec.MessagesDropped.Load(), rec.AuthFailures.Load(), rec.RepliesRefused.Load()}
			if got == want {
				return
			}
		}
		t.Fatalf("%s: dropped/auth/refused = %v, want %v", name, got, want)
	}

	query := append([]byte(nil), signer.encode(syncMsg{from: 1, nonce: 1})...)
	patched := func(off int, b byte) []byte {
		p := append([]byte(nil), query...)
		p[off] = b
		return p
	}
	expect("short packet", query[:len(query)-1], [3]int64{1, 0, 0})
	expect("long packet", append(append([]byte(nil), query...), 0), [3]int64{2, 0, 0})
	expect("unknown version", patched(serveOffVersion, 2), [3]int64{3, 0, 0})
	expect("unknown mode", patched(serveOffMode, 9), [3]int64{4, 0, 0})
	expect("JSON datagram", []byte(`{"v":1,"t":"q","f":1,"n":1}`), [3]int64{5, 0, 0})
	expect("wrong-key tag", newSyncSigner([]byte("not-the-key")).encode(syncMsg{from: 1, nonce: 1}), [3]int64{6, 1, 0})
	expect("missing tag", newSyncSigner(nil).encode(syncMsg{from: 1, nonce: 1}), [3]int64{7, 2, 0})
	expect("unknown nonce", signer.encode(syncMsg{reply: true, from: 1, nonce: 99}), [3]int64{7, 2, 1})

	// A nonce outstanding to peer 1: peer 2 answering it is refused and
	// cancels nothing; peer 1's answer lands; a replay of it is refused.
	ch := make(chan liveReply, 1)
	n.mu.Lock()
	n.pending[42] = pendingPing{peer: 1, ch: ch}
	n.mu.Unlock()
	expect("wrong peer", signer.encode(syncMsg{reply: true, from: 2, nonce: 42, clock: 5}), [3]int64{7, 2, 2})
	answer := append([]byte(nil), signer.encode(syncMsg{reply: true, from: 1, nonce: 42, clock: 6})...)
	if err := peer.WriteTo(answer, MemAddr(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case rp := <-ch:
		if rp.peer != 1 || rp.clock != 6 {
			t.Errorf("delivered reply %+v, want peer 1's clock 6", rp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the right peer's answer never arrived")
	}
	expect("replay", answer, [3]int64{7, 2, 3})
	if len(ch) != 0 {
		t.Errorf("%d refused replies reached the round", len(ch))
	}
	if got := rec.MessagesReceived.Load(); got != 4 {
		t.Errorf("MessagesReceived = %d, want the 4 authenticated replies", got)
	}
}
