package network

import (
	"fmt"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

// Message is a delivered datagram. From is trustworthy: links are
// authenticated per §2.2, so a receiver always knows the true sender. A
// Byzantine processor can send arbitrary payloads but only under its own
// identity.
type Message struct {
	From, To    int
	Payload     any
	SentAt      simtime.Time
	DeliveredAt simtime.Time
}

// Handler consumes messages delivered to a registered processor.
type Handler func(Message)

// Counters aggregates per-processor traffic statistics, used by the message
// overhead experiment (E8).
type Counters struct {
	Sent      int
	Delivered int
	Dropped   int
	Bytes     int // approximate payload size, when payloads implement Sizer
}

// Sizer lets payload types report an approximate wire size for the overhead
// accounting; payloads that don't implement it count a fixed nominal size.
type Sizer interface {
	WireSize() int
}

// nominalSize approximates the wire size of payloads that do not implement
// Sizer: headers plus a small body.
const nominalSize = 32

// Network is the simulated authenticated message layer. It runs over lanes: a
// lane is one event queue plus what that queue owns — its envelope and
// payload free lists and its outbox of messages bound for other lanes — and
// the run's draw stream on it, rekeyed per message. A network over a serial
// simulator has one lane, one over a sharded simulator one lane per shard
// (see NewSharded). Every processor belongs to one lane: its sends draw there
// and its deliveries land there, so a lane's state is touched only by the
// goroutine running its queue, and needs no lock.
//
// The network holds no storage of its own beyond the run: the free lists and
// the outbox's storage belong to the queue (des.Owned), which keeps them
// across Reset until it is dropped. A network built on a reused simulator
// takes them over, with every envelope and payload the last run gave back;
// it builds only the run's node table, draw streams and empty outboxes.
// Networks on one simulator share that storage, and building one empties the
// outboxes, so build a run's networks before running it.
type Network struct {
	topo  Topology
	delay DelayModel
	nodes []node
	lanes []lane
	// DropProb is the probability a message is silently lost, for failure
	// injection. The paper's link model is reliable; experiments that check
	// the analytic bounds leave this at zero.
	DropProb float64

	// seed keys the per-message draws, and lookahead is the shortest delay a
	// message may take to another lane.
	seed      int64
	lookahead simtime.Duration
}

// node is one processor's entry: its handler, its traffic counters, the lane
// that runs it, and the count of messages it has sent.
type node struct {
	handler  Handler
	counters Counters
	lane     int
	seq      uint64
}

// lane is one event queue's share of one run's network: the queue, the run's
// draw stream on it, and what the queue keeps. Send rekeys src per message; a
// stream on Send's stack would escape through DelayModel.Sample.
type lane struct {
	sim *des.Sim
	src SplitMix64
	*store
}

// store is what a lane's queue owns (des.Owned): its recycled envelopes and
// its outbox's storage. The payload lists are owned the same way, one per
// type (PayloadList).
type store struct {
	free   des.FreeList[envelope]
	outbox []pending
}

// newLane takes over sim's store for a new run. A run cut short mid-window —
// by a panicking event — leaves messages in the outbox; they and their
// payloads belong to that run, so they are dropped, not delivered or
// recycled.
func newLane(sim *des.Sim) lane {
	st := des.Owned[store](sim)
	clear(st.outbox)
	st.outbox = st.outbox[:0]
	return lane{sim: sim, store: st}
}

// envelope is one in-flight message plus its delivery closure, bound once for
// the envelope's lifetime: a send costs one pooled event and no closure. The
// envelope outlives the run, so the closure does not capture the network:
// Send sets net, and delivery clears it with the message.
type envelope struct {
	net *Network
	msg Message
	fn  func()
}

// pending is one message bound for another lane, waiting in its sender's
// outbox for the window barrier.
type pending struct {
	at  simtime.Time
	env *envelope
}

// New wires a one-lane network over a serial simulator, keyed by the
// simulator's seed.
func New(sim *des.Sim, topo Topology, delay DelayModel) *Network {
	n := newNetwork(topo, delay, sim.Seed(), 1)
	n.lanes[0] = newLane(sim)
	return n
}

// NewSharded wires a network with one lane per shard of a conservative
// parallel simulator. A message to a processor on the same shard is scheduled
// on the shard's queue directly; one to another shard waits in the sender's
// outbox and is merged into the destination shard at the window barrier —
// conservativeness puts its delivery at or beyond the window bound, so no
// shard misses a delivery it should have seen.
//
// Draws are keyed per message, as on the serial engine, so they do not depend
// on the partition. The delay model's MinBound must be a true minimum ≥ the
// simulator's lookahead; a sampled cross-shard latency below the lookahead
// panics, since it would break the conservative window and silently misorder
// events.
func NewSharded(ps *des.ShardedSim, topo Topology, delay DelayModel, seed int64) *Network {
	n := newNetwork(topo, delay, seed, ps.Shards())
	n.lookahead = ps.Lookahead()
	for i := range n.nodes {
		n.nodes[i].lane = ps.ShardOf(i)
	}
	for s := range n.lanes {
		n.lanes[s] = newLane(ps.Shard(s))
	}
	ps.OnBarrier(n.flushOutboxes)
	return n
}

func newNetwork(topo Topology, delay DelayModel, seed int64, lanes int) *Network {
	return &Network{
		topo:  topo,
		delay: delay,
		nodes: make([]node, topo.N()),
		lanes: make([]lane, lanes),
		seed:  seed,
	}
}

// PayloadList returns the free list for payloads of type T on the lane that
// runs processor id. The protocol layer sends payloads as pointers (boxing a
// value per message dominated the simulator's allocation profile), and the
// handler that consumed one puts it back after it has read the fields —
// handlers never retain the pointer; the round buffers the protocol layer
// borrows go back the same way. The list belongs to the lane's queue
// (des.Owned), not to a processor or a run: it holds at most the items ever
// out at once on its lane, whichever processors took them, and a reused
// simulator keeps it across Reset until it is dropped. Call it while wiring
// the run (processors register before the simulation starts) and keep the
// result: after that the list belongs to the lane's goroutine.
func PayloadList[T any](n *Network, id int) *des.FreeList[T] {
	return des.Owned[des.FreeList[T]](n.lanes[n.nodes[id].lane].sim)
}

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// Delay returns the network's delay model.
func (n *Network) Delay() DelayModel { return n.delay }

// Register installs the message handler for processor id. Each processor
// registers exactly once, before the simulation starts.
func (n *Network) Register(id int, h Handler) {
	if n.nodes[id].handler != nil {
		panic(fmt.Sprintf("network: processor %d registered twice", id))
	}
	n.nodes[id].handler = h
}

// Send transmits payload from processor `from` to processor `to`. The
// message is delivered after a sampled latency unless dropped. Sending to a
// non-neighbor is a programming error in the protocol and panics.
func (n *Network) Send(from, to int, payload any) {
	if !n.topo.Connected(from, to) {
		panic(fmt.Sprintf("network: %d -> %d not connected", from, to))
	}
	size := nominalSize
	if s, ok := payload.(Sizer); ok {
		size = s.WireSize()
	}
	src := &n.nodes[from]
	src.counters.Sent++
	src.counters.Bytes += size
	l := &n.lanes[src.lane]
	l.src.State = Key(n.seed, MsgTag, uint64(from), uint64(to), src.seq)
	src.seq++
	if n.DropProb > 0 && l.src.Float64() < n.DropProb {
		src.counters.Dropped++
		return
	}
	now := l.sim.Now()
	d := n.delay.Sample(from, to, &l.src)
	env := l.free.Get()
	if env.fn == nil {
		env.fn = env.deliver
	}
	env.net, env.msg = n, Message{From: from, To: to, Payload: payload, SentAt: now}
	if n.nodes[to].lane == src.lane {
		l.sim.After(d, env.fn)
		return
	}
	if d < n.lookahead {
		panic(fmt.Sprintf(
			"network: cross-shard delay %v below lookahead %v — the delay model's MinBound overstates its true minimum",
			d, n.lookahead))
	}
	l.outbox = append(l.outbox, pending{at: now.Add(d), env: env})
}

// deliver hands an envelope's message to the destination handler and recycles
// the envelope onto the destination's lane — envelopes migrate with their
// messages. The envelope is recycled before the handler runs: handlers send
// messages of their own, and reusing the hot envelope keeps the pool at the
// lane's maximum in-flight footprint.
func (env *envelope) deliver() {
	n, msg := env.net, env.msg
	env.net, env.msg = nil, Message{} // the list must pin neither the run nor the payload
	dst := &n.nodes[msg.To]
	l := &n.lanes[dst.lane]
	l.free.Put(env)
	if dst.handler == nil {
		return
	}
	dst.counters.Delivered++
	msg.DeliveredAt = l.sim.Now()
	dst.handler(msg)
}

// flushOutboxes merges every lane's outbox into the destination lanes. It runs
// as a barrier hook — serially, with every shard quiesced — so scheduling on
// any lane's queue is safe.
func (n *Network) flushOutboxes(simtime.Time) {
	for _, l := range n.lanes {
		for i := range l.outbox {
			p := &l.outbox[i]
			n.lanes[n.nodes[p.env.msg.To].lane].sim.At(p.at, p.env.fn)
			p.env = nil // the outbox keeps its capacity; don't pin envelopes
		}
		l.outbox = l.outbox[:0]
	}
}

// TotalSent returns the total number of messages sent by all processors.
func (n *Network) TotalSent() int {
	total := 0
	for i := range n.nodes {
		total += n.nodes[i].counters.Sent
	}
	return total
}

// TotalDelivered returns the total number of messages delivered to handlers.
func (n *Network) TotalDelivered() int {
	total := 0
	for i := range n.nodes {
		total += n.nodes[i].counters.Delivered
	}
	return total
}

// TotalDropped returns the total number of messages lost in transit.
func (n *Network) TotalDropped() int {
	total := 0
	for i := range n.nodes {
		total += n.nodes[i].counters.Dropped
	}
	return total
}

// TotalBytes returns the total approximate bytes sent by all processors.
func (n *Network) TotalBytes() int {
	total := 0
	for i := range n.nodes {
		total += n.nodes[i].counters.Bytes
	}
	return total
}
