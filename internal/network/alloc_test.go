package network

import (
	"runtime"
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

// hops is a relay payload: each delivery forwards it until left runs out.
type hops struct{ left int }

func (*hops) WireSize() int { return 24 }

// relayRun wires net for relay runs and returns one run: four chains of 50 hops
// each, node i's chain starting at an event on start(i), every delivery
// forwarding the payload one or two ids on — to the other shard and to the
// same one, on a network striped over two. The payloads come from the lanes'
// lists and the last hop puts them back. Envelopes and payloads move with
// their messages, so each chain crosses an even number of times and ends on
// the lane it started from. What a run counts is the message path: payload,
// send, envelope, event, outbox, delivery.
func relayRun(net *Network, start func(id int) *des.Sim, run func()) func() {
	const nodes = 4
	kicks := make([]func(), nodes)
	for id := range kicks {
		id, list := id, PayloadList[hops](net, id)
		net.Register(id, func(m Message) {
			p := m.Payload.(*hops)
			if p.left--; p.left > 0 {
				net.Send(id, (id+1+p.left%2)%nodes, p)
			} else {
				list.Put(p)
			}
		})
		kicks[id] = func() {
			p := list.Get()
			p.left = 50
			net.Send(id, (id+2)%nodes, p)
		}
	}
	return func() {
		for id, kick := range kicks {
			sim := start(id)
			sim.At(sim.Now(), kick)
		}
		run()
	}
}

// TestSendDeliverAllocFree pins the message path's steady state: once the
// free lists and outboxes are warm, a send→deliver allocates nothing, on a
// one-lane network and across the barrier of a two-shard one. The shards run
// inline on the test goroutine (the worker pool is held), so the count is the
// network's and the queues', not the helper goroutines'.
func TestSendDeliverAllocFree(t *testing.T) {
	delay := NewUniformDelay(simtime.Millisecond, 5*simtime.Millisecond)
	warmAllocs := func(r func()) float64 {
		for i := 0; i < 10; i++ { // size the event arena, free lists and outboxes
			r()
		}
		return testing.AllocsPerRun(100, r)
	}

	sim := des.New(1)
	serial := New(sim, NewFullMesh(4), delay)
	if a := warmAllocs(relayRun(serial, func(int) *des.Sim { return sim }, sim.Run)); a != 0 {
		t.Errorf("one lane: %v allocs per 200 messages, want 0", a)
	}

	held := des.AcquireWorkers(1 << 20)
	defer des.ReleaseWorkers(held)
	ps := des.NewSharded(1, 2, delay.Min)
	sharded := NewSharded(ps, NewFullMesh(4), delay, 1)
	run := func() { ps.RunUntil(ps.Now().Add(simtime.Second)) }
	if a := warmAllocs(relayRun(sharded, func(id int) *des.Sim { return ps.Shard(ps.ShardOf(id)) }, run)); a != 0 {
		t.Errorf("two shards: %v allocs per 200 messages, want 0", a)
	}
	if sharded.TotalDelivered() == 0 || len(sharded.lanes[0].outbox) != 0 {
		t.Fatal("the sharded relay delivered nothing or left messages in an outbox")
	}
}

// TestResetLanesAllocFree: a network built on a reset simulator takes
// over the envelopes, outbox storage and payload lists the previous run on
// it warmed, so its first burst allocates nothing from the first send — on
// a serial simulator and on a two-shard one. What a run leaves behind — a
// message queued for its own lane, one waiting in an outbox for the other —
// is dropped at the next: that run delivers only its own messages and leaves
// no event queued.
func TestResetLanesAllocFree(t *testing.T) {
	delay := NewUniformDelay(simtime.Millisecond, 5*simtime.Millisecond)
	held := des.AcquireWorkers(1 << 20)
	defer des.ReleaseWorkers(held)
	sim := des.New(1)
	ps := des.NewSharded(1, 2, delay.Min)
	engines := []struct {
		name   string
		reset  func(seed int64)
		build  func() *Network
		start  func(id int) *des.Sim
		run    func()
		queues []*des.Sim
	}{{
		name:   "one lane",
		reset:  sim.Reset,
		build:  func() *Network { return New(sim, NewFullMesh(4), delay) },
		start:  func(int) *des.Sim { return sim },
		run:    sim.Run,
		queues: []*des.Sim{sim},
	}, {
		name:   "two shards",
		reset:  ps.Reset,
		build:  func() *Network { return NewSharded(ps, NewFullMesh(4), delay, 1) },
		start:  func(id int) *des.Sim { return ps.Shard(ps.ShardOf(id)) },
		run:    func() { ps.RunUntil(ps.Now().Add(simtime.Second)) },
		queues: []*des.Sim{ps.Shard(0), ps.Shard(1)},
	}}
	for _, e := range engines {
		r := relayRun(e.build(), e.start, e.run)
		for i := 0; i < 10; i++ {
			r()
		}
		e.reset(2)
		last := e.build()
		if a := mallocs(relayRun(last, e.start, e.run)); a != 0 {
			t.Errorf("%s: the first run after Reset allocated %d objects for 200 messages, want 0", e.name, a)
		}

		last.Send(0, 2, &hops{left: 1}) // same lane: queued on the queue
		last.Send(0, 1, &hops{left: 1}) // other shard: waits in the outbox
		delivered := last.TotalDelivered()
		e.reset(3)
		next := e.build()
		relayRun(next, e.start, e.run)()
		if got := next.TotalDelivered(); got != 200 || last.TotalDelivered() != delivered {
			t.Errorf("%s: the new run delivered %d messages and the last one %d more, want 200 and none",
				e.name, got, last.TotalDelivered()-delivered)
		}
		for i, q := range e.queues {
			if q.Pending() != 0 {
				t.Errorf("%s: queue %d holds %d events after the run, want none", e.name, i, q.Pending())
			}
		}
	}
}

// mallocs counts the heap objects one call of f allocates. Unlike
// testing.AllocsPerRun it runs f once, with no warm-up call.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
