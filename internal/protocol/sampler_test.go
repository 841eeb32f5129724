package protocol

import (
	"math"
	"testing"

	"clocksync/internal/network"
)

func TestPeerSamplerSubset(t *testing.T) {
	peers := make([]int, 20)
	for i := range peers {
		peers[i] = i + 100 // distinct ids, offset so index bugs show
	}
	s := NewPeerSampler(peers, 7, 42, 3)
	seen := make(map[int]int)
	for round := 0; round < 200; round++ {
		got := s.Sample()
		if len(got) != 7 {
			t.Fatalf("round %d: sample size %d, want 7", round, len(got))
		}
		inRound := make(map[int]bool, len(got))
		for _, p := range got {
			if p < 100 || p >= 120 {
				t.Fatalf("round %d: sampled %d outside universe", round, p)
			}
			if inRound[p] {
				t.Fatalf("round %d: duplicate peer %d in %v", round, p, got)
			}
			inRound[p] = true
			seen[p]++
		}
	}
	// Each peer is drawn with probability 7/20 per round: all twenty show up
	// in 200 rounds (TestPeerSamplerUniformCoverage states the odds).
	for _, p := range peers {
		if seen[p] == 0 {
			t.Errorf("peer %d never sampled in 200 rounds", p)
		}
	}
}

func TestPeerSamplerDeterminism(t *testing.T) {
	peers := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	a := NewPeerSampler(peers, 4, 7, 2)
	b := NewPeerSampler(peers, 4, 7, 2)
	other := NewPeerSampler(peers, 4, 7, 3) // different node → different stream
	differs := false
	for round := 0; round < 50; round++ {
		x, y, z := a.Sample(), b.Sample(), other.Sample()
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("round %d: same key diverged: %v vs %v", round, x, y)
			}
		}
		if len(x) == len(z) {
			for i := range x {
				if x[i] != z[i] {
					differs = true
				}
			}
		}
	}
	if !differs {
		t.Fatal("nodes 2 and 3 drew identical subsets for 50 rounds")
	}
}

func TestPeerSamplerFullMeshFallback(t *testing.T) {
	peers := []int{1, 2, 3}
	for _, k := range []int{0, -1, 3, 10} {
		s := NewPeerSampler(peers, k, 1, 0)
		got := s.Sample()
		if len(got) != len(peers) {
			t.Fatalf("k=%d: sample %v, want full universe", k, got)
		}
		for i := range peers {
			if got[i] != peers[i] {
				t.Fatalf("k=%d: sample %v, want %v", k, got, peers)
			}
		}
	}
}

func TestPeerSamplerNoAllocsSteadyState(t *testing.T) {
	peers := make([]int, 64)
	for i := range peers {
		peers[i] = i
	}
	s := NewPeerSampler(peers, 13, 9, 1)
	s.Sample() // warm
	allocs := testing.AllocsPerRun(100, func() { s.Sample() })
	if allocs > 0 {
		t.Fatalf("Sample allocates %.1f objects/op in steady state", allocs)
	}
}

// TestPeerSamplerUniformCoverage pins what the sampler does promise about
// coverage: every round is a uniform k-subset, independent of every other
// round. So a peer's pick count over R rounds is Binomial(R, k/size) — at the
// benchmark's n=1024, k=31 every one of the 1,023 counts over 3,000 rounds
// lies within five standard deviations of R·k/size — and having been drawn
// says nothing about the next round: there is no rotation. What it does not
// promise is reaching the whole mesh within a Θ window (372 of 1,023 peers at
// most, at twelve rounds per window); in a mesh small against k the odds do
// that by themselves, and at n=16, k=7 no peer goes unseen for 30 rounds.
func TestPeerSamplerUniformCoverage(t *testing.T) {
	const n, k, rounds, self = 1024, 31, 3000, 5
	s := NewNeighborSampler(network.NewFullMesh(n), self, k, 1)
	counts := make([]int, n)
	for r := 0; r < rounds; r++ {
		for _, p := range s.Sample() {
			counts[p]++
		}
	}
	if counts[self] != 0 {
		t.Fatalf("node %d sampled itself %d times", self, counts[self])
	}
	p := float64(k) / float64(n-1)
	mean, sd := rounds*p, math.Sqrt(rounds*p*(1-p))
	for peer, c := range counts {
		if peer != self && math.Abs(float64(c)-mean) > 5*sd {
			t.Errorf("peer %d drawn %d times in %d rounds, want %.1f ± %.1f (5σ)", peer, c, rounds, mean, 5*sd)
		}
	}

	const small, ks, window = 16, 7, 30
	s = NewNeighborSampler(network.NewFullMesh(small), 0, ks, 1)
	lastSeen := make([]int, small)
	var prev [small]bool
	repeats := 0
	for r := 1; r <= rounds; r++ {
		var cur [small]bool
		for _, p := range s.Sample() {
			cur[p] = true
			lastSeen[p] = r
			if prev[p] {
				repeats++
			}
		}
		prev = cur
		for peer := 1; peer < small; peer++ {
			if r-lastSeen[peer] >= window {
				t.Fatalf("peer %d unseen for %d rounds up to round %d", peer, window, r)
			}
		}
	}
	// P(drawn again | just drawn) = k/size, as for any other peer.
	want := float64(ks) / float64(small-1)
	if got := float64(repeats) / float64((rounds-1)*ks); math.Abs(got-want) > 0.02 {
		t.Errorf("a peer just drawn was drawn again %.3f of the time, want %.3f ± 0.02 — rounds are not independent", got, want)
	}
}

// TestNeighborSamplerMatchesListSampler: drawing through the topology's
// i-th-neighbour function picks exactly what drawing from the materialised
// list picks — on a full mesh, where the function is arithmetic, and on a
// graph — and a no-op k hands back the whole neighbourhood.
func TestNeighborSamplerMatchesListSampler(t *testing.T) {
	for _, topo := range []network.Topology{network.NewFullMesh(40), network.NewCirculant(40, 12)} {
		for _, node := range []int{0, 17, 39} {
			list := topo.Neighbors(node)
			a, b := NewNeighborSampler(topo, node, 5, 99), NewPeerSampler(list, 5, 99, node)
			for round := 0; round < 100; round++ {
				x, y := a.Sample(), b.Sample()
				if len(x) != 5 {
					t.Fatalf("%T node %d round %d: %d picks, want 5", topo, node, round, len(x))
				}
				for i := range x {
					if x[i] != y[i] {
						t.Fatalf("%T node %d round %d: neighbour sampler %v, list sampler %v", topo, node, round, x, y)
					}
				}
			}
			for _, k := range []int{0, len(list), len(list) + 3} {
				got := NewNeighborSampler(topo, node, k, 99).Sample()
				if len(got) != len(list) {
					t.Fatalf("%T node %d k=%d: %d peers, want all %d", topo, node, k, len(got), len(list))
				}
				for i := range list {
					if got[i] != list[i] {
						t.Fatalf("%T node %d k=%d: %v, want %v", topo, node, k, got, list)
					}
				}
			}
		}
	}
}
