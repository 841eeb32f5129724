package network

import (
	"sync"
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

// echoDelivery records one delivery for the determinism comparison.
type echoDelivery struct {
	From, To    int
	SentAt      simtime.Time
	DeliveredAt simtime.Time
}

// runEcho runs a small all-to-all echo workload (every node pings every
// other node, receivers echo once) on the given shard count and returns the
// deliveries sorted by the simulator's own execution order per node.
func runEcho(t *testing.T, shards int, drop float64) (map[int][]echoDelivery, int, int) {
	t.Helper()
	const nodes = 6
	const L = 2 * simtime.Millisecond
	ps := des.NewSharded(42, shards, L)
	topo := NewFullMesh(nodes)
	delay := UniformDelay{Min: L, Max: 10 * simtime.Millisecond}
	n := NewSharded(ps, topo, delay, 42)
	n.DropProb = drop

	var mu sync.Mutex
	got := make(map[int][]echoDelivery)
	for id := 0; id < nodes; id++ {
		id := id
		n.Register(id, func(m Message) {
			mu.Lock()
			got[id] = append(got[id], echoDelivery{m.From, m.To, m.SentAt, m.DeliveredAt})
			mu.Unlock()
			if m.Payload == "ping" {
				n.Send(id, m.From, "echo")
			}
		})
	}
	for id := 0; id < nodes; id++ {
		id := id
		ps.Shard(ps.ShardOf(id)).At(simtime.Time(id)*0.0001, func() {
			for to := 0; to < nodes; to++ {
				if to != id {
					n.Send(id, to, "ping")
				}
			}
		})
	}
	ps.RunUntil(1)
	return got, n.TotalDelivered(), n.TotalDropped()
}

// TestShardedNetworkDeterminism: the same seed must produce identical
// deliveries — sender, instants, drops — for shard counts 1, 2 and 3. This
// is the message-layer half of the shard-count independence contract.
func TestShardedNetworkDeterminism(t *testing.T) {
	base, baseDelivered, baseDropped := runEcho(t, 1, 0.2)
	if baseDelivered == 0 {
		t.Fatal("no deliveries in baseline run")
	}
	if baseDropped == 0 {
		t.Fatal("drop injection inactive; the determinism check would be vacuous")
	}
	for _, shards := range []int{2, 3} {
		got, delivered, dropped := runEcho(t, shards, 0.2)
		if delivered != baseDelivered || dropped != baseDropped {
			t.Fatalf("shards=%d: delivered/dropped %d/%d, want %d/%d",
				shards, delivered, dropped, baseDelivered, baseDropped)
		}
		for id := range base {
			if len(got[id]) != len(base[id]) {
				t.Fatalf("shards=%d node %d: %d deliveries, want %d",
					shards, id, len(got[id]), len(base[id]))
			}
			for i := range base[id] {
				if got[id][i] != base[id][i] {
					t.Fatalf("shards=%d node %d delivery %d = %+v, want %+v",
						shards, id, i, got[id][i], base[id][i])
				}
			}
		}
	}
}

// TestShardedCrossShardDeliveryOrder: messages merged at barriers must be
// handed to a node in DeliveredAt order.
func TestShardedCrossShardDeliveryOrder(t *testing.T) {
	got, _, _ := runEcho(t, 3, 0)
	for id, ds := range got {
		for i := 1; i < len(ds); i++ {
			if ds[i].DeliveredAt < ds[i-1].DeliveredAt {
				t.Fatalf("node %d: delivery %d at %v before predecessor at %v",
					id, i, ds[i].DeliveredAt, ds[i-1].DeliveredAt)
			}
		}
	}
}

// TestShardedLookaheadGuard: a delay model whose MinBound overstates its
// true minimum would break the conservative window; the network must panic
// rather than misorder events.
func TestShardedLookaheadGuard(t *testing.T) {
	const L = 5 * simtime.Millisecond
	ps := des.NewSharded(1, 2, L)
	lying := DelayFunc{
		Fn:       func(_, _ int, _ *SplitMix64) simtime.Duration { return simtime.Millisecond },
		BoundVal: simtime.Millisecond,
		MinVal:   L, // lie: claims ≥ L, samples 1ms
	}
	n := NewSharded(ps, NewFullMesh(4), lying, 1)
	n.Register(1, func(Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-shard delay below lookahead")
		}
	}()
	ps.Shard(0).At(0, func() { n.Send(0, 1, "x") })
	ps.RunUntil(1)
}

// TestMinDelay: the MinBounder plumbing for every stock model.
func TestMinDelay(t *testing.T) {
	u := UniformDelay{Min: 2 * simtime.Millisecond, Max: 9 * simtime.Millisecond}
	cases := []struct {
		m    DelayModel
		want simtime.Duration
	}{
		{ConstantDelay{D: 3 * simtime.Millisecond}, 3 * simtime.Millisecond},
		{u, 2 * simtime.Millisecond},
		{AsymmetricDelay{FwdMin: 4, FwdMax: 8, RevMin: 3, RevMax: 9}, 3},
		{SpikyDelay{Base: u, SpikeProb: 0.1, SpikeMax: simtime.Second}, 2 * simtime.Millisecond},
		{DelayFunc{BoundVal: 1, MinVal: 0.25}, 0.25},
		{noMinModel{}, 0},
	}
	for _, c := range cases {
		if got := MinDelay(c.m); got != c.want {
			t.Errorf("MinDelay(%T) = %v, want %v", c.m, got, c.want)
		}
	}
}

type noMinModel struct{}

func (noMinModel) Sample(_, _ int, _ *SplitMix64) simtime.Duration { return 1 }
func (noMinModel) Bound() simtime.Duration                         { return 1 }

// TestPayloadListsPerShardAndType: processors on one shard share one list
// per payload type, other shards and other types get their own, a serial
// network is one lane, and a list hands back whatever it was given —
// including a payload it never handed out.
func TestPayloadListsPerShardAndType(t *testing.T) {
	type req struct{ n uint64 }
	type resp struct{ n uint64 }
	ps := des.NewSharded(1, 3, simtime.Millisecond)
	n := NewSharded(ps, NewFullMesh(7), ConstantDelay{D: simtime.Millisecond}, 1)
	if PayloadList[req](n, 0) != PayloadList[req](n, 3) || PayloadList[req](n, 3) != PayloadList[req](n, 6) {
		t.Fatal("nodes 0, 3 and 6 run on shard 0 and must share its list")
	}
	if PayloadList[req](n, 0) == PayloadList[req](n, 1) || PayloadList[req](n, 1) == PayloadList[req](n, 2) {
		t.Fatal("shards must not share a list")
	}
	if any(PayloadList[resp](n, 0)) == any(PayloadList[req](n, 0)) {
		t.Fatal("payload types must not share a list")
	}
	serial := New(des.New(1), NewFullMesh(4), ConstantDelay{D: simtime.Millisecond})
	if PayloadList[req](serial, 0) != PayloadList[req](serial, 3) {
		t.Fatal("a serial network has one list per type")
	}

	l := PayloadList[req](n, 1)
	first := l.Get()
	if first == nil || l.Len() != 0 {
		t.Fatal("an empty list must allocate")
	}
	foreign := &req{n: 9}
	l.Put(first)
	l.Put(foreign)
	if got := l.Get(); got != foreign {
		t.Fatal("the list must hand back the payload it was given last")
	}
	if got := l.Get(); got != first {
		t.Fatal("the list must hand back the payload it allocated")
	}
	if PayloadList[req](n, 4).Get() == first { // shard 1 again: the list is empty now
		t.Fatal("a payload was handed out twice")
	}
}
