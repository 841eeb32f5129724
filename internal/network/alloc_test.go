package network

import (
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

// hops is a relay payload: each delivery forwards it until left runs out.
type hops struct{ left int }

func (*hops) WireSize() int { return 24 }

// relayAllocs is what one steady-state relay run allocates: four chains of
// 50 hops each, node i's chain starting at an event on start(i), every
// delivery forwarding the payload one or two ids on — to the other shard and
// to the same one, on a network striped over two. Envelopes move with their
// messages, so each chain crosses an even number of times and its envelopes
// end on the lane they started from. The payloads are the run's own, so what
// is counted is the message path: send, envelope, event, outbox, delivery.
func relayAllocs(net *Network, start func(id int) *des.Sim, run func()) float64 {
	const nodes = 4
	chains := make([]hops, nodes)
	for id := 0; id < nodes; id++ {
		id := id
		net.Register(id, func(m Message) {
			p := m.Payload.(*hops)
			if p.left--; p.left > 0 {
				net.Send(id, (id+1+p.left%2)%nodes, p)
			}
		})
	}
	kicks := make([]func(), nodes)
	for id := range kicks {
		id := id
		kicks[id] = func() { net.Send(id, (id+2)%nodes, &chains[id]) }
	}
	relay := func() {
		for id := range chains {
			chains[id].left = 50
			sim := start(id)
			sim.At(sim.Now(), kicks[id])
		}
		run()
	}
	for i := 0; i < 10; i++ { // size the event arena, free lists and outboxes
		relay()
	}
	return testing.AllocsPerRun(100, relay)
}

// TestSendDeliverAllocFree pins the message path's steady state: once the
// free lists and outboxes are warm, a send→deliver allocates nothing, on a
// one-lane network and across the barrier of a two-shard one. The shards run
// inline on the test goroutine (the worker pool is held), so the count is the
// network's and the queues', not the helper goroutines'.
func TestSendDeliverAllocFree(t *testing.T) {
	delay := NewUniformDelay(simtime.Millisecond, 5*simtime.Millisecond)

	sim := des.New(1)
	serial := New(sim, NewFullMesh(4), delay)
	if a := relayAllocs(serial, func(int) *des.Sim { return sim }, sim.Run); a != 0 {
		t.Errorf("one lane: %v allocs per 200 messages, want 0", a)
	}

	held := des.AcquireWorkers(1 << 20)
	defer des.ReleaseWorkers(held)
	ps := des.NewSharded(1, 2, delay.Min)
	sharded := NewSharded(ps, NewFullMesh(4), delay, 1)
	run := func() { ps.RunUntil(ps.Now().Add(simtime.Second)) }
	if a := relayAllocs(sharded, func(id int) *des.Sim { return ps.Shard(ps.ShardOf(id)) }, run); a != 0 {
		t.Errorf("two shards: %v allocs per 200 messages, want 0", a)
	}
	if sharded.TotalDelivered() == 0 || len(sharded.lanes[0].outbox) != 0 {
		t.Fatal("the sharded relay delivered nothing or left messages in an outbox")
	}
}
