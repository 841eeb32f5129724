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

// Network is the simulated authenticated message layer.
type Network struct {
	sim      *des.Sim
	topo     Topology
	delay    DelayModel
	handlers []Handler
	counters []Counters
	// DropProb is the probability a message is silently lost, for failure
	// injection. The paper's link model is reliable; experiments that check
	// the analytic bounds leave this at zero.
	DropProb float64
	// Partitioned, when non-nil, reports link outage for a pair at send
	// time (failure injection beyond the paper's model).
	Partitioned func(from, to int, now simtime.Time) bool

	// freeEnv recycles in-flight message envelopes. Each envelope carries a
	// pre-bound delivery closure, so the per-send cost is one pooled event
	// plus payload boxing — no closure allocation. Safe without locking: the
	// simulator, and with it every Send and delivery, is single-threaded.
	freeEnv []*envelope

	// payloads holds the payload free lists (PayloadList), one set per shard;
	// a serial network is one shard. They sit beside the envelope lists and
	// follow the same rule: a shard's lists are touched only by the goroutine
	// that runs that shard.
	payloads [][]any

	// sh is non-nil when the network runs over a sharded simulator (see
	// sharded.go); the serial path above is untouched in that mode.
	sh *sharding
}

// envelope is one in-flight message plus its reusable delivery closure.
type envelope struct {
	msg Message
	fn  func()
}

// New wires a network over the given simulator, topology and delay model.
func New(sim *des.Sim, topo Topology, delay DelayModel) *Network {
	return &Network{
		sim:      sim,
		topo:     topo,
		delay:    delay,
		handlers: make([]Handler, topo.N()),
		counters: make([]Counters, topo.N()),
		payloads: make([][]any, 1),
	}
}

// FreeList recycles the wire payloads of one type on one shard. The protocol
// layer sends payloads as pointers (boxing a value per message dominated the
// simulator's allocation profile) and the handler that consumed one puts it
// back after it has read the fields — handlers never retain the pointer. The
// network owns the lists so that they live as long as the run, not as long as
// one processor: a list holds at most the payloads ever in flight at once on
// its shard, whichever processors sent them. A handler that returns nothing
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

// PayloadList returns the free list for payloads of type T on the shard that
// runs processor id, creating it on first use. Call it while wiring the run
// (processors register before the simulation starts) and keep the result:
// after that the list belongs to the shard's goroutine.
func PayloadList[T any](n *Network, id int) *FreeList[T] {
	s := 0
	if n.sh != nil {
		s = n.sh.shardOf[id]
	}
	for _, l := range n.payloads[s] {
		if fl, ok := l.(*FreeList[T]); ok {
			return fl
		}
	}
	fl := new(FreeList[T])
	n.payloads[s] = append(n.payloads[s], fl)
	return fl
}

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// Delay returns the network's delay model.
func (n *Network) Delay() DelayModel { return n.delay }

// Register installs the message handler for processor id. Each processor
// registers exactly once, before the simulation starts.
func (n *Network) Register(id int, h Handler) {
	if n.handlers[id] != nil {
		panic(fmt.Sprintf("network: processor %d registered twice", id))
	}
	n.handlers[id] = h
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
	n.counters[from].Sent++
	n.counters[from].Bytes += size
	if n.sh != nil {
		n.sendSharded(from, to, payload)
		return
	}
	if n.Partitioned != nil && n.Partitioned(from, to, n.sim.Now()) {
		n.counters[from].Dropped++
		return
	}
	if n.DropProb > 0 && n.sim.Rand().Float64() < n.DropProb {
		n.counters[from].Dropped++
		return
	}
	sent := n.sim.Now()
	d := n.delay.Sample(from, to, n.sim.Rand())
	env := n.newEnvelope()
	env.msg = Message{From: from, To: to, Payload: payload, SentAt: sent}
	n.sim.After(d, env.fn)
}

// newEnvelope pops a recycled envelope or builds one with its delivery
// closure bound once for the envelope's lifetime.
func (n *Network) newEnvelope() *envelope {
	if last := len(n.freeEnv) - 1; last >= 0 {
		env := n.freeEnv[last]
		n.freeEnv = n.freeEnv[:last]
		return env
	}
	env := &envelope{}
	env.fn = func() { n.deliver(env) }
	return env
}

// deliver hands an envelope's message to the destination handler and recycles
// the envelope. The envelope is recycled before the handler runs — handlers
// send messages of their own, and reusing the hot envelope keeps the pool at
// the network's maximum in-flight footprint.
func (n *Network) deliver(env *envelope) {
	msg := env.msg
	env.msg = Message{} // drop the payload reference; the pool must not pin it
	n.freeEnv = append(n.freeEnv, env)
	h := n.handlers[msg.To]
	if h == nil {
		return
	}
	n.counters[msg.To].Delivered++
	msg.DeliveredAt = n.sim.Now()
	h(msg)
}

// SendToNeighbors transmits payload from `from` to every neighbor.
func (n *Network) SendToNeighbors(from int, payload any) {
	for _, to := range n.topo.Neighbors(from) {
		n.Send(from, to, payload)
	}
}

// CountersFor returns a copy of processor id's traffic counters.
func (n *Network) CountersFor(id int) Counters { return n.counters[id] }

// TotalSent returns the total number of messages sent by all processors.
func (n *Network) TotalSent() int {
	total := 0
	for i := range n.counters {
		total += n.counters[i].Sent
	}
	return total
}

// TotalDelivered returns the total number of messages delivered to handlers.
func (n *Network) TotalDelivered() int {
	total := 0
	for i := range n.counters {
		total += n.counters[i].Delivered
	}
	return total
}

// TotalDropped returns the total number of messages lost in transit (drop
// probability or partition injection).
func (n *Network) TotalDropped() int {
	total := 0
	for i := range n.counters {
		total += n.counters[i].Dropped
	}
	return total
}

// TotalBytes returns the total approximate bytes sent by all processors.
func (n *Network) TotalBytes() int {
	total := 0
	for i := range n.counters {
		total += n.counters[i].Bytes
	}
	return total
}

// ResetCounters zeroes all traffic counters (e.g. after warm-up).
func (n *Network) ResetCounters() {
	for i := range n.counters {
		n.counters[i] = Counters{}
	}
}
