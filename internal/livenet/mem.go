package livenet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"clocksync/internal/network"
)

// MemAddr returns the memory-transport address of node id ("mem://<id>").
func MemAddr(id int) string { return fmt.Sprintf("mem://%d", id) }

// memAddrID parses a memory address back to its node id (-1 when foreign).
// Only the exact spelling MemAddr(id) names node id: the fabric routes by
// that string, so "mem://05", "mem://+5" or "mem://-0" would reach nobody.
func memAddrID(addr string) int {
	s, ok := strings.CutPrefix(addr, "mem://")
	if !ok {
		return -1
	}
	id, err := strconv.Atoi(s)
	if err != nil || id < 0 || strconv.Itoa(id) != s {
		return -1
	}
	return id
}

// MemNetwork is an in-process datagram fabric: every endpoint is a
// MemTransport registered under a "mem://<id>" address, and delivery is a
// buffered channel hop — optionally through a simulated link latency drawn
// from a network.DelayModel, the same models the simulator uses. The
// per-packet latency is drawn from a SplitMix64 keyed by the seed and the
// packet's hash, so a seeded MemNetwork inflicts reproducible delays
// independent of goroutine interleaving. Endpoint inboxes are bounded; like
// UDP, a full inbox drops the datagram.
type MemNetwork struct {
	seed  int64
	delay network.DelayModel
	scale time.Duration // wall time per simtime second for delay samples

	mu  sync.Mutex
	eps sync.Map // addr string → *MemTransport; lock-free on the per-packet read path
}

// MemNetworkConfig tunes a MemNetwork.
type MemNetworkConfig struct {
	Seed int64
	// Delay, when non-nil, samples a one-way link latency per packet
	// (from/to are the endpoints' node ids). Nil delivers immediately.
	Delay network.DelayModel
	// Scale converts the delay model's simtime seconds into wall time
	// (defaults to 1s: simtime seconds are wall seconds).
	Scale time.Duration
}

// NewMemNetwork builds an empty fabric.
func NewMemNetwork(cfg MemNetworkConfig) *MemNetwork {
	scale := cfg.Scale
	if scale <= 0 {
		scale = time.Second
	}
	return &MemNetwork{
		seed:  cfg.Seed,
		delay: cfg.Delay,
		scale: scale,
	}
}

// Transport registers (or returns) the endpoint for node id.
func (mn *MemNetwork) Transport(id int) *MemTransport {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	addr := MemAddr(id)
	if t, ok := mn.eps.Load(addr); ok {
		return t.(*MemTransport)
	}
	t := &MemTransport{
		net:   mn,
		addr:  addr,
		inbox: make(chan memPacket, 512),
		done:  make(chan struct{}),
	}
	mn.eps.Store(addr, t)
	return t
}

func (mn *MemNetwork) lookup(addr string) *MemTransport {
	if t, ok := mn.eps.Load(addr); ok {
		return t.(*MemTransport)
	}
	return nil
}

// deliver routes one datagram, applying the fabric's link latency.
func (mn *MemNetwork) deliver(from, to string, data []byte) {
	if mn.delay == nil {
		mn.inject(from, to, data)
		return
	}
	fromID, toID := memAddrID(from), memAddrID(to)
	src := network.SplitMix64{State: network.Key(mn.seed, network.MemDelayTag, packetHash(mn.seed, from, to, data))}
	d := mn.delay.Sample(fromID, toID, &src)
	wall := time.Duration(float64(d) * float64(mn.scale))
	if wall <= 0 {
		mn.inject(from, to, data)
		return
	}
	time.AfterFunc(wall, func() { mn.inject(from, to, data) })
}

func (mn *MemNetwork) inject(from, to string, data []byte) {
	ep := mn.lookup(to)
	if ep == nil {
		return // unknown destination: dropped, like UDP to a dead port
	}
	// Single-case send with default compiles to a non-blocking channel op —
	// no selectgo on the per-packet path. A full inbox drops the datagram
	// (like UDP); a closed endpoint's inbox is simply never read, which is
	// the same observable outcome.
	select {
	case ep.inbox <- memPacket{from: from, data: data}:
	default: // inbox full: dropped
	}
}

// packetHash derives a deterministic per-packet key from the fabric seed,
// the route and the payload bytes. Fault injection and latency sampling key
// off it so packet fates do not depend on scheduling order.
func packetHash(seed int64, from, to string, data []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	h.Write([]byte{0})
	h.Write(data)
	return h.Sum64()
}

type memPacket struct {
	from string
	data []byte
}

// MemTransport is one endpoint of a MemNetwork.
type MemTransport struct {
	net  *MemNetwork
	addr string

	inbox chan memPacket
	done  chan struct{}
	once  sync.Once
}

// ErrClosed is returned by reads and writes on a closed memory transport,
// and by queries on a closed Client.
var ErrClosed = errors.New("livenet: transport closed")

// ReadFrom implements Transport.
func (t *MemTransport) ReadFrom(buf []byte) (int, string, error) {
	// Fast path: a waiting packet is a single non-blocking channel op,
	// skipping selectgo when the endpoint is kept busy.
	select {
	case p := <-t.inbox:
		n := copy(buf, p.data)
		return n, p.from, nil
	default:
	}
	select {
	case p := <-t.inbox:
		n := copy(buf, p.data)
		return n, p.from, nil
	case <-t.done:
		return 0, "", ErrClosed
	}
}

// WriteTo implements Transport. The payload is copied before it crosses the
// fabric, so callers may reuse their buffer.
func (t *MemTransport) WriteTo(data []byte, to string) error {
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	t.net.deliver(t.addr, to, cp)
	return nil
}

// CheckAddr implements addrChecker: a memory address must be MemAddr of some
// node id, exactly.
func (t *MemTransport) CheckAddr(addr string) error {
	if memAddrID(addr) < 0 {
		return fmt.Errorf("livenet: bad memory address %q (want mem://<id>)", addr)
	}
	return nil
}

// LocalAddr implements Transport.
func (t *MemTransport) LocalAddr() string { return t.addr }

// Close implements Transport.
func (t *MemTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}
