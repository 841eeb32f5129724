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
// payload free lists, its draw stream, rekeyed per message, and its outbox of
// messages bound for other lanes. A network over a serial simulator has one
// lane, one over a sharded simulator one lane per shard (see NewSharded).
// Every processor belongs to one lane: its sends draw there and its deliveries
// land there, so a lane's state is touched only by the goroutine running its
// queue, and needs no lock.
type Network struct {
	topo  Topology
	delay DelayModel
	nodes []node
	lanes []*lane
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

// lane is one event queue's share of the network. Send rekeys src per
// message; a stream on Send's stack would escape through DelayModel.Sample.
type lane struct {
	sim      *des.Sim
	src      SplitMix64
	free     []*envelope
	payloads []any // the lane's FreeLists, one per payload or buffer type
	outbox   []pending
}

// envelope is one in-flight message plus its delivery closure, bound once for
// the envelope's lifetime: a send costs one pooled event and no closure.
type envelope struct {
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
	n.lanes[0] = &lane{sim: sim}
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
		n.lanes[s] = &lane{sim: ps.Shard(s)}
	}
	ps.OnBarrier(n.flushOutboxes)
	return n
}

func newNetwork(topo Topology, delay DelayModel, seed int64, lanes int) *Network {
	return &Network{
		topo:  topo,
		delay: delay,
		nodes: make([]node, topo.N()),
		lanes: make([]*lane, lanes),
		seed:  seed,
	}
}

// FreeList recycles the wire payloads of one type on one lane — and, under
// the same rule, the round-sized buffers the protocol layer borrows for the
// length of an estimation round (a FreeList[[]T] lends *[]T). The protocol
// layer sends payloads as pointers (boxing a value per message dominated the
// simulator's allocation profile) and the handler that consumed one puts it
// back after it has read the fields — handlers never retain the pointer. The
// network owns the lists so that they live as long as the run, not as long as
// one processor: a list holds at most the payloads ever in flight at once on
// its lane, whichever processors sent them. A handler that returns nothing
// merely leaves its payloads to the garbage collector, and a payload the list
// did not hand out is as good as one it did.
type FreeList[T any] struct{ free []*T }

// Get pops a recycled payload or allocates one. The caller sets every field.
func (l *FreeList[T]) Get() *T {
	if last := len(l.free) - 1; last >= 0 {
		p := l.free[last]
		l.free = l.free[:last]
		return p
	}
	return new(T)
}

// Put recycles a payload whose handler has returned.
func (l *FreeList[T]) Put(p *T) { l.free = append(l.free, p) }

// Len reports how many items the list holds for the next Get.
func (l *FreeList[T]) Len() int { return len(l.free) }

// PayloadList returns the free list for payloads of type T on the lane that
// runs processor id, creating it on first use. Call it while wiring the run
// (processors register before the simulation starts) and keep the result:
// after that the list belongs to the lane's goroutine.
func PayloadList[T any](n *Network, id int) *FreeList[T] {
	l := n.lanes[n.nodes[id].lane]
	for _, p := range l.payloads {
		if fl, ok := p.(*FreeList[T]); ok {
			return fl
		}
	}
	fl := new(FreeList[T])
	l.payloads = append(l.payloads, fl)
	return fl
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
	l := n.lanes[src.lane]
	l.src.State = Key(n.seed, MsgTag, uint64(from), uint64(to), src.seq)
	src.seq++
	if n.DropProb > 0 && l.src.Float64() < n.DropProb {
		src.counters.Dropped++
		return
	}
	now := l.sim.Now()
	d := n.delay.Sample(from, to, &l.src)
	env := n.newEnvelope(l)
	env.msg = Message{From: from, To: to, Payload: payload, SentAt: now}
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

// newEnvelope pops a recycled envelope off lane l or builds one with its
// delivery closure.
func (n *Network) newEnvelope(l *lane) *envelope {
	if last := len(l.free) - 1; last >= 0 {
		env := l.free[last]
		l.free = l.free[:last]
		return env
	}
	env := &envelope{}
	env.fn = func() { n.deliver(env) }
	return env
}

// deliver hands an envelope's message to the destination handler and recycles
// the envelope onto the destination's lane — envelopes migrate with their
// messages. The envelope is recycled before the handler runs: handlers send
// messages of their own, and reusing the hot envelope keeps the pool at the
// lane's maximum in-flight footprint.
func (n *Network) deliver(env *envelope) {
	msg := env.msg
	env.msg = Message{} // drop the payload reference; the pool must not pin it
	dst := &n.nodes[msg.To]
	l := n.lanes[dst.lane]
	l.free = append(l.free, env)
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
