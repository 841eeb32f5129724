package livenet

import (
	"sync"
	"time"

	"clocksync/internal/adversary"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// FaultTransport wraps any Transport with deterministic fault injection
// driven by an adversary.NetSchedule — the chaos layer of the live path.
//
// Two classes of fault are injected:
//
//   - Structured windows (crash, partition) from the schedule's Faults,
//     evaluated against the schedule clock: while this endpoint is inside a
//     crash window nothing goes out and everything arriving is discarded;
//     while a partition separates this endpoint from a peer, traffic in the
//     cut direction is dropped. Windows are exact: given the same schedule
//     and start instant, the same messages are cut.
//
//   - Ambient packet chaos (drop, duplicate, reorder, bounded extra delay)
//     from the schedule's Chaos. Each packet's fate is derived by hashing
//     the seed with the route and payload bytes, so a retransmission (new
//     nonce, new bytes) draws a fresh fate while a byte-identical packet
//     always meets the same one, regardless of goroutine interleaving.
//
// The schedule's times are simtime (virtual seconds); Start and Scale map
// them onto the wall clock: virtual instant t is wall instant
// Start + t·Scale. Injected faults are counted on the optional Recorder
// (clocksync_faultnet_*_total).
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu   sync.Mutex
	held *heldPacket // reorder buffer: one packet awaiting its successor
}

type heldPacket struct {
	data  []byte
	to    string
	timer *time.Timer
}

// FaultConfig parameterizes a FaultTransport.
type FaultConfig struct {
	// Seed feeds the per-packet fate hash. The same seed, schedule and
	// traffic reproduce the same drops, duplicates, reorders and delays.
	Seed int64
	// Node is the wrapped endpoint's id (the schedule speaks node ids).
	Node int
	// Schedule is the chaos plan. Structured faults use its windows;
	// ambient chaos uses its Chaos parameters.
	Schedule adversary.NetSchedule
	// Start is the wall instant of virtual time 0. The zero value means
	// "now" at construction.
	Start time.Time
	// Scale is the wall duration of one virtual second (default 1s).
	Scale time.Duration
	// Resolve maps a transport address to a node id for schedule lookups.
	// Nil understands memory addresses ("mem://<id>"); UDP deployments must
	// provide the peer-table inverse.
	Resolve func(addr string) int
	// Rec, when non-nil, counts injected faults.
	Rec *obs.Recorder
	// Logf receives per-fault diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// NewFaultTransport wraps inner with fault injection.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	if cfg.Scale <= 0 {
		cfg.Scale = time.Second
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Now()
	}
	if cfg.Resolve == nil {
		cfg.Resolve = memAddrID
	}
	if cfg.Rec == nil {
		cfg.Rec = obs.NewRecorder() // discard: keeps the counting paths branch-free
	}
	return &FaultTransport{inner: inner, cfg: cfg}
}

// SetRecorder redirects the injection counters to rec, typically the node's
// own recorder so injected faults show up on its /metrics. The counting
// paths read the recorder unsynchronized: call this before traffic flows
// (between livenet.New and Node.Run).
func (t *FaultTransport) SetRecorder(rec *obs.Recorder) {
	if rec != nil {
		t.cfg.Rec = rec
	}
}

// SetStart rebases virtual time 0 to the given wall instant; call it before
// traffic flows when the fabric is built ahead of the run.
func (t *FaultTransport) SetStart(start time.Time) {
	t.mu.Lock()
	t.cfg.Start = start
	t.mu.Unlock()
}

// now returns the current virtual instant on the schedule clock.
func (t *FaultTransport) now() simtime.Time {
	t.mu.Lock()
	start := t.cfg.Start
	t.mu.Unlock()
	return simtime.Time(time.Since(start).Seconds() / t.cfg.Scale.Seconds())
}

func (t *FaultTransport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// count increments a fault counter.
func (t *FaultTransport) count(c *obs.Counter) { c.Inc() }

// WriteTo implements Transport, deciding the packet's fate before it
// reaches the wire.
func (t *FaultTransport) WriteTo(data []byte, to string) error {
	now := t.now()
	if t.cfg.Schedule.CrashedAt(t.cfg.Node, now) {
		t.count(&t.cfg.Rec.FaultCrashDrops)
		return nil // crashed processes transmit nothing; not an error
	}
	toID := t.cfg.Resolve(to)
	if toID >= 0 && t.cfg.Schedule.Blocks(t.cfg.Node, toID, now) {
		t.count(&t.cfg.Rec.FaultPartitionDrops)
		return nil
	}
	chaos := t.cfg.Schedule.Chaos
	if chaos.Zero() {
		return t.inner.WriteTo(data, to)
	}
	// Slice the packet hash into independent uniform draws: one per fault
	// class, plus a delay fraction. splitmix-style remixing keeps the draws
	// decorrelated.
	h := packetHash(t.cfg.Seed, t.inner.LocalAddr(), to, data)
	uDrop, h := unitDraw(h)
	uDup, h := unitDraw(h)
	uReorder, h := unitDraw(h)
	uDelay, _ := unitDraw(h)

	if uDrop < chaos.DropP {
		t.count(&t.cfg.Rec.FaultDrops)
		t.logf("faultnet: dropping %dB to %s", len(data), to)
		return nil
	}
	if uReorder < chaos.ReorderP {
		t.count(&t.cfg.Rec.FaultReorders)
		t.hold(data, to)
		return nil
	}
	if chaos.DelayMax > 0 {
		// Every packet takes a hashed extra delay uniform in [0, DelayMax).
		extra := time.Duration(uDelay * float64(chaos.DelayMax) * float64(t.cfg.Scale))
		if extra > 0 {
			t.count(&t.cfg.Rec.FaultDelays)
			cp := append([]byte(nil), data...)
			time.AfterFunc(extra, func() {
				t.flushHeldBefore(cp, to)
			})
			if uDup < chaos.DupP {
				t.count(&t.cfg.Rec.FaultDups)
				return t.inner.WriteTo(data, to)
			}
			return nil
		}
	}
	err := t.inner.WriteTo(data, to)
	if err == nil && uDup < chaos.DupP {
		t.count(&t.cfg.Rec.FaultDups)
		err = t.inner.WriteTo(data, to)
	}
	t.releaseHeld()
	return err
}

// hold parks a packet in the one-slot reorder buffer; it is released after
// the next packet goes out, or after a flush timeout when traffic stalls
// (a reordered packet must not become a silent drop).
func (t *FaultTransport) hold(data []byte, to string) {
	cp := append([]byte(nil), data...)
	t.mu.Lock()
	prev := t.held
	hp := &heldPacket{data: cp, to: to}
	hp.timer = time.AfterFunc(50*time.Millisecond, func() {
		t.mu.Lock()
		if t.held == hp {
			t.held = nil
		}
		t.mu.Unlock()
		t.inner.WriteTo(cp, to)
	})
	t.held = hp
	t.mu.Unlock()
	if prev != nil && prev.timer.Stop() {
		t.inner.WriteTo(prev.data, prev.to)
	}
}

// releaseHeld sends the parked packet (if any) after its successor.
func (t *FaultTransport) releaseHeld() {
	t.mu.Lock()
	hp := t.held
	t.held = nil
	t.mu.Unlock()
	if hp != nil && hp.timer.Stop() {
		t.inner.WriteTo(hp.data, hp.to)
	}
}

// flushHeldBefore delivers a delayed packet, releasing any parked packet
// first so reordering cannot starve behind a quiet link.
func (t *FaultTransport) flushHeldBefore(data []byte, to string) {
	t.releaseHeld()
	t.inner.WriteTo(data, to)
}

// ReadFrom implements Transport, discarding inbound traffic that a crash or
// partition window says this endpoint must not see.
func (t *FaultTransport) ReadFrom(buf []byte) (int, string, error) {
	for {
		n, from, err := t.inner.ReadFrom(buf)
		if err != nil {
			return n, from, err
		}
		now := t.now()
		if t.cfg.Schedule.CrashedAt(t.cfg.Node, now) {
			t.count(&t.cfg.Rec.FaultCrashDrops)
			continue // crashed: the process isn't there to read
		}
		fromID := t.cfg.Resolve(from)
		if fromID >= 0 && t.cfg.Schedule.Blocks(fromID, t.cfg.Node, now) {
			t.count(&t.cfg.Rec.FaultPartitionDrops)
			continue
		}
		return n, from, nil
	}
}

// unitDraw turns the low bits of h into a uniform [0,1) draw and remixes h
// (splitmix64 finalizer) for the next draw.
func unitDraw(h uint64) (float64, uint64) {
	return float64(h>>11) / float64(1<<53), network.Mix64(h)
}

// LocalAddr implements Transport.
func (t *FaultTransport) LocalAddr() string { return t.inner.LocalAddr() }

// Close implements Transport.
func (t *FaultTransport) Close() error {
	t.mu.Lock()
	if t.held != nil {
		t.held.timer.Stop()
		t.held = nil
	}
	t.mu.Unlock()
	return t.inner.Close()
}

// CheckAddr forwards to the wrapped transport when it vets addresses.
func (t *FaultTransport) CheckAddr(addr string) error {
	if c, ok := t.inner.(addrChecker); ok {
		return c.CheckAddr(addr)
	}
	return nil
}
