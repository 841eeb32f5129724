package network

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// deliveryScript sizes the seeded relay that delivery.golden pins.
const (
	scriptNodes = 8
	scriptQuota = 250 // sends per node: 2,000 in all
	scriptDrop  = 0.1
)

// scriptPayload reports a size that varies with the message, so the byte
// total pins which messages were sent, not only how many.
type scriptPayload int

func (p scriptPayload) WireSize() int { return 16 + int(p)%23 }

// relay is one node of the script: every delivery it receives makes it send
// the next two messages of its quota, to peers chosen by its own send count.
// All of its state is touched only by the event queue that runs the node, so
// the script is race-free on any number of shards.
type relay struct {
	id   int
	sent int
	h    hash.Hash
	got  int
}

func (r *relay) deliver(n *Network, m Message) {
	var b [32]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(m.From))
	binary.LittleEndian.PutUint64(b[8:], uint64(m.To))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(float64(m.SentAt)))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(float64(m.DeliveredAt)))
	r.h.Write(b[:])
	r.got++
	for k := 0; k < 2; k++ {
		r.send(n)
	}
}

func (r *relay) send(n *Network) {
	if r.sent == scriptQuota {
		return
	}
	to := (r.id + 1 + r.sent%(scriptNodes-1)) % scriptNodes
	n.Send(r.id, to, scriptPayload(r.id*scriptQuota+r.sent))
	r.sent++
}

// runScript wires the relay on n, starts every node with one send at its own
// instant on the queue start(id) returns, runs to the horizon with run, and
// renders each node's delivery digest in id order plus the traffic totals.
func runScript(label string, n *Network, start func(id int) *des.Sim, run func(simtime.Time)) string {
	n.DropProb = scriptDrop
	relays := make([]*relay, scriptNodes)
	for id := range relays {
		r := &relay{id: id, h: sha256.New()}
		relays[id] = r
		n.Register(id, func(m Message) { r.deliver(n, m) })
		start(id).At(simtime.Time(0).Add(simtime.Duration(id)*simtime.Millisecond/8), func() { r.send(n) })
	}
	run(simtime.Time(simtime.Minute))
	var b strings.Builder
	for _, r := range relays {
		fmt.Fprintf(&b, "%s node=%d sent=%d delivered=%d sha256=%x\n", label, r.id, r.sent, r.got, r.h.Sum(nil))
	}
	fmt.Fprintf(&b, "%s sent=%d delivered=%d dropped=%d bytes=%d\n",
		label, n.TotalSent(), n.TotalDelivered(), n.TotalDropped(), n.TotalBytes())
	return b.String()
}

// TestDeliveryGolden pins the message layer bit for bit against
// testdata/delivery.golden: one seeded relay script (n=8, uniform 5–50 ms
// delays, 10 % drops, every delivery sending the next messages until 2,000
// have been sent) on a serial network and on a three-shard network. Per node,
// deliveries arrive in a deterministic order on both engines; how a sharded
// run interleaves them across shards is not, so the digest is per node. Every
// draw is keyed per message, so the two engines deliver the same messages at
// the same instants: their lines differ only in the label.
// Regenerate deliberately with:
//
//	go test ./internal/network -run TestDeliveryGolden -update
func TestDeliveryGolden(t *testing.T) {
	delay := NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond)
	topo := NewFullMesh(scriptNodes)

	sim := des.New(7)
	serial := runScript("serial", New(sim, topo, delay),
		func(int) *des.Sim { return sim }, sim.RunUntil)

	ps := des.NewSharded(7, 3, MinDelay(delay))
	sharded := runScript("shards=3", NewSharded(ps, topo, delay, 7),
		func(id int) *des.Sim { return ps.Shard(ps.ShardOf(id)) }, ps.RunUntil)

	if strings.ReplaceAll(serial, "serial ", "shards=3 ") != sharded {
		t.Errorf("the serial and sharded engines delivered differently:\n%s\n%s", serial, sharded)
	}
	got := serial + sharded
	path := filepath.Join("testdata", "delivery.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("message layer drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
