// Sharded message layer: the network half of the conservative-lookahead
// parallel simulator (internal/des.ShardedSim).
//
// Same-shard messages schedule directly on the shard's queue, exactly like
// the serial path. Cross-shard messages are buffered in a per-sender-shard
// outbox and merged into the destination shards at the window barrier —
// conservativeness guarantees their delivery instants lie at or beyond the
// window bound, so no shard ever misses a delivery it should have seen.
//
// Randomness must be shard-count independent (see the des package comment),
// so per-message draws (drop, latency) cannot come from the shard RNGs,
// whose consumption order depends on the partition. Instead every message
// reseeds a splitmix64 source from the hash of (seed, from, to, senderSeq):
// the draw sequence for a message is a pure function of sender history,
// identical under any partition. Envelope and payload free lists and traffic
// counters are safe without locks by index ownership — node i's sends and
// deliveries both execute on shard ShardOf(i)'s goroutine, and outboxes are
// flushed at barriers with every shard quiesced.
package network

import (
	"fmt"
	"math/rand"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

// sharding holds the Network's parallel-mode state; nil on serial networks.
type sharding struct {
	ps      *des.ShardedSim
	seed    int64
	shardOf []int         // node -> shard, cached
	seq     []uint64      // per-sender message counter (owned by the sender's shard)
	src     []*SplitMix64 // per-shard reseedable sources
	rng     []*rand.Rand  // per-shard rand.Rand over src
	outbox  [][]pending   // cross-shard sends, indexed by sender shard
	free    [][]*envelope
}

// pending is one cross-shard message awaiting its barrier merge.
type pending struct {
	at  simtime.Time
	env *envelope
}

// NewSharded wires a network over a sharded simulator. The delay model's
// MinBound must be a true minimum ≥ the simulator's lookahead; a sampled
// cross-shard latency below the lookahead panics, since it would break the
// conservative window and silently misorder events.
func NewSharded(ps *des.ShardedSim, topo Topology, delay DelayModel, seed int64) *Network {
	nn := topo.N()
	sh := &sharding{
		ps:      ps,
		seed:    seed,
		shardOf: make([]int, nn),
		seq:     make([]uint64, nn),
		src:     make([]*SplitMix64, ps.Shards()),
		rng:     make([]*rand.Rand, ps.Shards()),
		outbox:  make([][]pending, ps.Shards()),
		free:    make([][]*envelope, ps.Shards()),
	}
	for i := range sh.shardOf {
		sh.shardOf[i] = ps.ShardOf(i)
	}
	for s := range sh.src {
		sh.src[s] = &SplitMix64{}
		sh.rng[s] = rand.New(sh.src[s])
	}
	n := &Network{
		topo:     topo,
		delay:    delay,
		handlers: make([]Handler, nn),
		counters: make([]Counters, nn),
		payloads: make([][]any, ps.Shards()),
		sh:       sh,
	}
	ps.OnBarrier(n.flushOutboxes)
	return n
}

// Sharded reports whether the network runs over a sharded simulator.
func (n *Network) Sharded() bool { return n.sh != nil }

// sendSharded is Send's parallel-mode tail: connectivity and counters are
// already handled by the caller.
func (n *Network) sendSharded(from, to int, payload any) {
	sh := n.sh
	s := sh.shardOf[from]
	sim := sh.ps.Shard(s)
	now := sim.Now()
	if n.Partitioned != nil && n.Partitioned(from, to, now) {
		n.counters[from].Dropped++
		return
	}
	// Per-message deterministic randomness: same draws under any partition.
	sh.src[s].State = msgKey(sh.seed, from, to, sh.seq[from])
	sh.seq[from]++
	rng := sh.rng[s]
	if n.DropProb > 0 && rng.Float64() < n.DropProb {
		n.counters[from].Dropped++
		return
	}
	d := n.delay.Sample(from, to, rng)
	env := n.newEnvelopeShard(s)
	env.msg = Message{From: from, To: to, Payload: payload, SentAt: now}
	if sh.shardOf[to] == s {
		sim.After(d, env.fn)
		return
	}
	if d < sh.ps.Lookahead() {
		panic(fmt.Sprintf(
			"network: cross-shard delay %v below lookahead %v — the delay model's MinBound overstates its true minimum",
			d, sh.ps.Lookahead()))
	}
	sh.outbox[s] = append(sh.outbox[s], pending{at: now.Add(d), env: env})
}

// newEnvelopeShard pops shard s's free list or builds an envelope whose
// delivery closure is bound once, to the sharded delivery path.
func (n *Network) newEnvelopeShard(s int) *envelope {
	free := n.sh.free[s]
	if last := len(free) - 1; last >= 0 {
		env := free[last]
		n.sh.free[s] = free[:last]
		return env
	}
	env := &envelope{}
	env.fn = func() { n.deliverShard(env) }
	return env
}

// deliverShard hands the message to its handler on the destination shard's
// goroutine and recycles the envelope into the destination shard's pool
// (envelopes migrate with their messages; each pool is only touched by its
// own shard's goroutine).
func (n *Network) deliverShard(env *envelope) {
	msg := env.msg
	env.msg = Message{}
	ds := n.sh.shardOf[msg.To]
	n.sh.free[ds] = append(n.sh.free[ds], env)
	h := n.handlers[msg.To]
	if h == nil {
		return
	}
	n.counters[msg.To].Delivered++
	msg.DeliveredAt = n.sh.ps.Shard(ds).Now()
	h(msg)
}

// flushOutboxes merges buffered cross-shard deliveries into the destination
// shards. It runs as a barrier hook — serially, with every shard quiesced —
// so scheduling on any shard's queue is safe, and conservativeness puts each
// delivery instant at or beyond the window bound.
func (n *Network) flushOutboxes(simtime.Time) {
	sh := n.sh
	for s := range sh.outbox {
		box := sh.outbox[s]
		for i := range box {
			env := box[i].env
			box[i].env = nil // the outbox keeps its capacity; don't pin envelopes
			sh.ps.Shard(sh.shardOf[env.msg.To]).At(box[i].at, env.fn)
		}
		sh.outbox[s] = box[:0]
	}
}

// SplitMix64 is a reseedable splitmix64 stream: cheap to reset — assign State
// — and statistically solid for the few draws taken per key. Every draw that
// must not depend on the shard partition comes from one of these, keyed by a
// Mix64 hash of what the draw belongs to: a message's drop and latency here,
// a round's peer subset in the protocol layer.
type SplitMix64 struct {
	State uint64
}

// Uint64 implements rand.Source64.
func (m *SplitMix64) Uint64() uint64 {
	m.State += 0x9E3779B97F4A7C15
	return Mix64(m.State)
}

// Int63 implements rand.Source.
func (m *SplitMix64) Int63() int64 { return int64(m.Uint64() >> 1) }

// Seed implements rand.Source.
func (m *SplitMix64) Seed(s int64) { m.State = uint64(s) }

// msgKey hashes a message's identity (run seed, sender, receiver, the
// sender's per-message sequence number) into the seed of its private draw
// stream.
func msgKey(seed int64, from, to int, seq uint64) uint64 {
	x := Mix64(uint64(seed) ^ 0x6A09E667F3BCC909)
	x = Mix64(x ^ uint64(uint32(from)))
	x = Mix64(x ^ uint64(uint32(to)))
	x = Mix64(x ^ seq)
	return x
}

// Mix64 is the splitmix64 finalizer.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
