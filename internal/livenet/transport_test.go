package livenet

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"clocksync/internal/adversary"
	"clocksync/internal/obs"
)

// go test ./internal/livenet -run TestPacketFatesGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestTransportSourceAddrIdentity pins the address a UDP receiver reports
// for a sender: the sender's own LocalAddr string, whatever the receiver is
// bound to, so peer tables keyed by configured addresses match what
// ReadFrom returns. Replying to that address must reach the sender.
func TestTransportSourceAddrIdentity(t *testing.T) {
	cases := []struct {
		name, recv, send string
		v6               bool
	}{
		{"ipv4 receiver", "127.0.0.1:0", "127.0.0.1:0", false},
		{"dual-stack receiver, ipv4 sender", ":0", "127.0.0.1:0", false},
		{"ipv6 pair", "[::1]:0", "[::1]:0", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recv, err := NewUDPTransport(tc.recv)
			if err != nil {
				if tc.v6 {
					t.Skipf("no IPv6 loopback: %v", err)
				}
				t.Fatal(err)
			}
			defer recv.Close()
			send, err := NewUDPTransport(tc.send)
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()

			// A wildcard receiver is reached on the sender's loopback.
			_, port, err := net.SplitHostPort(recv.LocalAddr())
			if err != nil {
				t.Fatal(err)
			}
			sendHost, _, _ := net.SplitHostPort(send.LocalAddr())
			to := net.JoinHostPort(sendHost, port)

			var first string
			for i := 0; i < 2; i++ {
				if err := send.WriteTo([]byte("ping"), to); err != nil {
					t.Fatal(err)
				}
				_, from := readWithin(t, recv)
				if from != send.LocalAddr() {
					t.Fatalf("from = %q, want the sender's LocalAddr %q", from, send.LocalAddr())
				}
				if i == 0 {
					first = from
				} else if from != first {
					t.Fatalf("from changed between datagrams: %q then %q", first, from)
				}
			}
			if err := recv.WriteTo([]byte("pong"), first); err != nil {
				t.Fatalf("reply to %q: %v", first, err)
			}
			if got, _ := readWithin(t, send); got != "pong" {
				t.Fatalf("sender read %q, want pong", got)
			}
		})
	}
}

// readWithin reads one datagram from tr, failing the test instead of
// hanging when none arrives within five seconds.
func readWithin(t *testing.T, tr Transport) (payload, from string) {
	t.Helper()
	watchdog := time.AfterFunc(5*time.Second, func() { tr.Close() })
	defer watchdog.Stop()
	buf := make([]byte, 2048)
	n, from, err := tr.ReadFrom(buf)
	if err != nil {
		t.Fatalf("no datagram arrived: %v", err)
	}
	return string(buf[:n]), from
}

// recordingTransport is an inner transport that counts writes and never
// delivers: it lets a FaultTransport's per-packet decision be observed in
// isolation.
type recordingTransport struct {
	addr   string
	writes atomic.Int32
}

func (r *recordingTransport) ReadFrom([]byte) (int, string, error) { return 0, "", ErrClosed }
func (r *recordingTransport) WriteTo([]byte, string) error         { r.writes.Add(1); return nil }
func (r *recordingTransport) LocalAddr() string                    { return r.addr }
func (r *recordingTransport) Close() error                         { return nil }

// TestPacketFatesGolden pins packet fates byte for byte: for a scripted list
// of (from, to, payload) over memory addresses, the fabric's packet hash and
// the fate a FaultTransport gives the packet under that hash. A change to
// how packets are hashed, or to which draw decides what, shows up as a diff.
func TestPacketFatesGolden(t *testing.T) {
	chaos := adversary.PacketChaos{DropP: 0.2, DupP: 0.25, ReorderP: 0.2}
	var out bytes.Buffer
	for _, seed := range []int64{7, -3} {
		for i := 0; i < 24; i++ {
			from, to := MemAddr(i%5), MemAddr((3*i+1)%7)
			data := scriptedPayload(i)

			inner := &recordingTransport{addr: from}
			rec := obs.NewRecorder()
			ft := NewFaultTransport(inner, FaultConfig{
				Seed: seed, Node: i % 5, Rec: rec,
				Schedule: adversary.NetSchedule{Chaos: chaos},
			})
			if err := ft.WriteTo(data, to); err != nil {
				t.Fatal(err)
			}
			ft.Close()
			fate := "pass"
			switch {
			case rec.FaultDrops.Load() == 1:
				fate = "drop"
			case rec.FaultReorders.Load() == 1:
				fate = "reorder"
			case rec.FaultDups.Load() == 1 && inner.writes.Load() == 2:
				fate = "dup"
			case inner.writes.Load() != 1:
				t.Fatalf("packet %d: %d inner writes with no fault counted", i, inner.writes.Load())
			}

			h := packetHash(seed, from, to, data)
			_, d := unitDraw(h)
			_, d = unitDraw(d)
			_, d = unitDraw(d)
			delay, _ := unitDraw(d)
			fmt.Fprintf(&out, "seed=%d %s -> %s len=%d hash=%016x fate=%s delay=%.6f\n",
				seed, from, to, len(data), h, fate, delay)
		}
	}

	goldenPath := filepath.Join("testdata", "fates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("packet fates differ from golden:\n got:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}

// scriptedPayload is packet i of the fates script: serve queries, sync-wire
// JSON, an empty datagram and a long one, so the hash sees every shape of
// payload the transports carry.
func scriptedPayload(i int) []byte {
	switch i % 4 {
	case 0:
		return EncodeServeQuery(make([]byte, ServeQuerySize), ServeQuery{Nonce: uint64(i), T1: int64(i) * 1e9})
	case 1:
		return []byte(fmt.Sprintf(`{"v":1,"t":"q","f":%d,"n":%d}`, i%5, i))
	case 2:
		if i%8 == 2 {
			return nil
		}
		return bytes.Repeat([]byte{byte(i)}, 300)
	default:
		return EncodeServeReply(make([]byte, ServeReplyMaxSize), ServeReply{
			Nonce: uint64(i), T1: 1, T2: 2, T3: 3, Epoch: uint64(i),
			Traced: true, Span: uint64(i) << 32, Origin: uint32(i),
		})
	}
}
