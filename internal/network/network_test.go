package network

import (
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

func TestFullMesh(t *testing.T) {
	m := NewFullMesh(4)
	if m.N() != 4 {
		t.Fatalf("N: got %d", m.N())
	}
	if !m.Connected(0, 3) || !m.Connected(2, 2) {
		t.Fatal("full mesh must connect everything")
	}
	if m.Connected(0, 4) || m.Connected(-1, 0) {
		t.Fatal("out-of-range ids must not be connected")
	}
	nb := m.Neighbors(1)
	want := []int{0, 2, 3}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors: got %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors: got %v, want %v", nb, want)
		}
	}
}

func TestGraph(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.Connected(0, 1) || !g.Connected(1, 0) {
		t.Fatal("edges must be undirected")
	}
	if g.Connected(0, 2) {
		t.Fatal("0-2 must not be connected")
	}
	if !g.Connected(3, 3) {
		t.Fatal("loopback must be implicit")
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Neighbors(1): got %v", got)
	}
	if g.Degree(1) != 2 || g.Degree(4) != 0 {
		t.Fatal("Degree broken")
	}
}

func TestGraphPanics(t *testing.T) {
	g := NewGraph(3)
	for _, fn := range []func(){
		func() { g.AddEdge(1, 1) },
		func() { g.AddEdge(0, 3) },
		func() { NewGraph(0) },
		func() { NewFullMesh(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTwoCliques(t *testing.T) {
	f := 2
	g := NewTwoCliques(f)
	size := 3*f + 1
	if g.N() != 2*size {
		t.Fatalf("N: got %d, want %d", g.N(), 2*size)
	}
	// Every node has degree 3f (clique) + 1 (matching) = 3f+1, which is the
	// connectivity claimed in §5.
	for i := 0; i < g.N(); i++ {
		if d := g.Degree(i); d != size {
			t.Fatalf("degree(%d): got %d, want %d", i, d, size)
		}
	}
	// Intra-clique edges exist; cross edges only on the matching.
	if !g.Connected(0, size-1) || !g.Connected(size, 2*size-1) {
		t.Fatal("clique edges missing")
	}
	if !g.Connected(0, size) || !g.Connected(size-1, 2*size-1) {
		t.Fatal("matching edges missing")
	}
	if g.Connected(0, size+1) {
		t.Fatal("unexpected cross edge")
	}
}

func TestCirculant(t *testing.T) {
	g := NewCirculant(13, 6)
	for i := 0; i < 13; i++ {
		if d := g.Degree(i); d != 6 {
			t.Fatalf("degree(%d): got %d, want 6", i, d)
		}
	}
	if !g.Connected(0, 3) || g.Connected(0, 4) {
		t.Fatal("circulant adjacency wrong")
	}
	if !g.Connected(12, 1) {
		t.Fatal("circulant must wrap")
	}
	// d = n−1 is the complete graph; even-d requirement means d=n−1 only
	// for odd... just check a small complete-like case.
	k := NewCirculant(5, 4)
	for i := 0; i < 5; i++ {
		if k.Degree(i) != 4 {
			t.Fatal("C_5(1,2) must be complete")
		}
	}
	for _, bad := range [][2]int{{10, 3}, {10, 0}, {10, 10}, {4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCirculant(%d, %d) must panic", bad[0], bad[1])
				}
			}()
			NewCirculant(bad[0], bad[1])
		}()
	}
}

func TestRing(t *testing.T) {
	g := NewRing(5)
	for i := 0; i < 5; i++ {
		if g.Degree(i) != 2 {
			t.Fatalf("ring degree: got %d", g.Degree(i))
		}
	}
	if !g.Connected(4, 0) {
		t.Fatal("ring must wrap")
	}
}

func TestDelayModels(t *testing.T) {
	rng := &SplitMix64{State: 1}
	c := ConstantDelay{D: 5 * simtime.Millisecond}
	if c.Sample(0, 1, rng) != 5*simtime.Millisecond || c.Bound() != 5*simtime.Millisecond {
		t.Fatal("constant delay broken")
	}
	u := NewUniformDelay(simtime.Millisecond, 3*simtime.Millisecond)
	for i := 0; i < 1000; i++ {
		d := u.Sample(0, 1, rng)
		if d < u.Min || d > u.Max {
			t.Fatalf("uniform sample %v outside [%v, %v]", d, u.Min, u.Max)
		}
	}
	if u.Bound() != 3*simtime.Millisecond {
		t.Fatal("uniform bound broken")
	}

	a := AsymmetricDelay{FwdMin: 10, FwdMax: 10, RevMin: 1, RevMax: 1}
	if a.Sample(0, 1, rng) != 10 || a.Sample(1, 0, rng) != 1 {
		t.Fatal("asymmetric direction selection broken")
	}
	if a.Bound() != 10 {
		t.Fatal("asymmetric bound broken")
	}

	s := SpikyDelay{Base: NewUniformDelay(1, 2), SpikeProb: 1.0, SpikeMax: 5}
	for i := 0; i < 100; i++ {
		d := s.Sample(0, 1, rng)
		if d < 1 || d > 7 {
			t.Fatalf("spiky sample %v outside [1, 7]", d)
		}
	}
	if s.Bound() != 7 {
		t.Fatal("spiky bound broken")
	}

	fn := DelayFunc{Fn: func(from, to int, _ *SplitMix64) simtime.Duration {
		return simtime.Duration(from + to)
	}, BoundVal: 9}
	if fn.Sample(4, 5, rng) != 9 || fn.Bound() != 9 {
		t.Fatal("delay func broken")
	}
}

func TestBadUniformDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUniformDelay(3, 1)
}

func TestSendDeliversWithinBound(t *testing.T) {
	sim := des.New(1)
	net := New(sim, NewFullMesh(3), NewUniformDelay(simtime.Millisecond, 5*simtime.Millisecond))
	var got []Message
	for id := 0; id < 3; id++ {
		id := id
		net.Register(id, func(m Message) {
			if m.To != id {
				t.Errorf("message for %d delivered to %d", m.To, id)
			}
			got = append(got, m)
		})
	}
	for i := 0; i < 100; i++ {
		net.Send(0, 1, i)
	}
	sim.Run()
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100", len(got))
	}
	for _, m := range got {
		lat := m.DeliveredAt.Sub(m.SentAt)
		if lat < simtime.Millisecond || lat > 5*simtime.Millisecond {
			t.Fatalf("latency %v outside model", lat)
		}
		if m.From != 0 {
			t.Fatal("From must be authentic")
		}
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	sim := des.New(1)
	g := NewGraph(3)
	g.AddEdge(0, 1)
	net := New(sim, g, ConstantDelay{D: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Send(0, 2, "x")
}

func TestDoubleRegisterPanics(t *testing.T) {
	sim := des.New(1)
	net := New(sim, NewFullMesh(2), ConstantDelay{D: 1})
	net.Register(0, func(Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Register(0, func(Message) {})
}

func TestDropProb(t *testing.T) {
	sim := des.New(1)
	net := New(sim, NewFullMesh(2), ConstantDelay{D: 1})
	delivered := 0
	net.Register(1, func(Message) { delivered++ })
	net.DropProb = 0.5
	const total = 2000
	for i := 0; i < total; i++ {
		net.Send(0, 1, i)
	}
	sim.Run()
	if delivered < total/3 || delivered > 2*total/3 {
		t.Fatalf("drop rate implausible: delivered %d of %d", delivered, total)
	}
	if net.TotalSent() != total || net.TotalDropped() != total-delivered || net.TotalDelivered() != delivered {
		t.Fatalf("counters: sent %d dropped %d delivered %d, handler saw %d",
			net.TotalSent(), net.TotalDropped(), net.TotalDelivered(), delivered)
	}
}

type sizedPayload struct{ n int }

func (s sizedPayload) WireSize() int { return s.n }

func TestCountersAndSizer(t *testing.T) {
	sim := des.New(1)
	net := New(sim, NewFullMesh(3), ConstantDelay{D: 1})
	net.Register(1, func(Message) {})
	net.Register(2, func(Message) {})
	net.Send(0, 1, sizedPayload{n: 100})
	net.Send(0, 1, "hello") // nominal size
	net.Send(0, 2, "hello")
	sim.Run()
	if net.TotalSent() != 3 {
		t.Fatalf("TotalSent: got %d", net.TotalSent())
	}
	if net.TotalBytes() != 100+2*nominalSize {
		t.Fatalf("TotalBytes: got %d", net.TotalBytes())
	}
	if net.TotalDelivered() != 3 {
		t.Fatalf("TotalDelivered: got %d", net.TotalDelivered())
	}
}

func TestUnregisteredReceiverIgnored(t *testing.T) {
	sim := des.New(1)
	net := New(sim, NewFullMesh(2), ConstantDelay{D: 1})
	net.Send(0, 1, "void")
	sim.Run() // must not panic
	if net.TotalDelivered() != 0 {
		t.Fatal("unregistered receiver counted a delivery")
	}
}

// TestNeighborIndexMatchesNeighbors: Degree and Neighbor are Neighbors read
// one entry at a time, on every topology the package builds.
func TestNeighborIndexMatchesNeighbors(t *testing.T) {
	sparse := NewGraph(6)
	sparse.AddEdge(4, 1)
	sparse.AddEdge(1, 5)
	sparse.AddEdge(1, 0)
	sparse.AddEdge(0, 1) // repeated edge: still one neighbour
	for _, topo := range []Topology{NewFullMesh(1), NewFullMesh(7), NewTwoCliques(2), NewCirculant(13, 6), NewRing(5), sparse} {
		for a := 0; a < topo.N(); a++ {
			want := topo.Neighbors(a)
			if topo.Degree(a) != len(want) {
				t.Fatalf("%T: Degree(%d) = %d, Neighbors has %d", topo, a, topo.Degree(a), len(want))
			}
			for i, b := range want {
				if got := topo.Neighbor(a, i); got != b {
					t.Fatalf("%T: Neighbor(%d, %d) = %d, Neighbors gives %d", topo, a, i, got, b)
				}
				if i > 0 && want[i-1] >= b {
					t.Fatalf("%T: Neighbors(%d) = %v is not strictly increasing", topo, a, want)
				}
				if !topo.Connected(a, b) || b == a {
					t.Fatalf("%T: neighbour %d of %d is not a linked peer", topo, b, a)
				}
			}
		}
	}
}
