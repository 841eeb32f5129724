package protocol

import (
	"clocksync/internal/des"
	"clocksync/internal/network"
)

// PeerSampler draws the subset of peers a node estimates against each Sync
// round. Full-mesh estimation sends O(n²) messages per round; sampling k
// peers sends O(n·k), trading message complexity against precision as the
// Khanchandani–Lenzen line of work does. With k ≥ 2f+1 the convergence
// function's (f+1)-st order statistics still trim every Byzantine estimate,
// which keeps each good node inside the range of the good readings it saw;
// Lemma 7's halving also needs good nodes to share good readings, which a
// full mesh gives and a sample gives only while the adversary cannot steer
// it. So sampled mode's Theorem 5 envelope is expected under that
// assumption, not proven: a sampler that keeps each node to its own half of
// the cluster reached 2.64 Δ with zero faults in a checked n=8, k=3 run.
// E21 measures the seeded sampler's envelope.
//
// The subset is a seeded uniform k-subset of the universe per round, keyed by
// (seed, node, round): deterministic for replay, and independent across nodes
// and rounds. A given peer is therefore drawn with probability k/size in
// every round, whatever was drawn before — there is no rotation, and nothing
// promises that a node hears every peer within a Θ window (at n=1024, k=31
// and twelve rounds per window it reaches at most 372 of its 1,023 peers).
//
// The universe is the caller's list or, for a topology node, its i-th-neighbour
// function — never a list built for it — and the picks are written into a
// buffer the sampler borrows for the length of a Sample call: the sampler's
// state is a handful of words whatever k and the size — no per-node
// permutation, no per-node neighbour slice, no per-node picks.
type PeerSampler struct {
	peers []int            // the universe, when it was given as a list
	topo  network.Topology // otherwise node's neighbours in topo
	size  int              // peers in the universe
	k     int
	seed  int64
	node  int
	round uint64
	lend  *des.FreeList[[]int] // where the picks are written
}

// NewPeerSampler samples k of the given peers per round. When k ≤ 0 or
// k ≥ len(peers) sampling is a no-op: Sample returns the full universe. The
// sampler writes its picks into a buffer of its own list, so a returned slice
// is valid until its next Sample.
func NewPeerSampler(peers []int, k int, seed int64, node int) *PeerSampler {
	return &PeerSampler{peers: peers, size: len(peers), k: k, seed: seed, node: node,
		lend: new(des.FreeList[[]int])}
}

// NewNeighborSampler samples k of node's neighbours in net's topology per
// round, reading them through Topology.Neighbor so that no neighbour list is
// built. When k ≤ 0 or k ≥ the node's degree sampling is a no-op: the node
// estimates all of its neighbours, written out afresh every round. The picks
// are written into a buffer of node's lane (network.PayloadList), which every
// sampler there shares: a returned slice is valid until the next Sample on
// the lane, which is enough for Harness.EstimateAll — it copies the picks into
// its round before anything else on the lane runs.
func NewNeighborSampler(net *network.Network, node, k int, seed int64) *PeerSampler {
	topo := net.Topology()
	return &PeerSampler{topo: topo, size: topo.Degree(node), k: k, seed: seed, node: node,
		lend: network.PayloadList[[]int](net, node)}
}

// at returns the i-th peer of the universe, 0 ≤ i < size.
func (s *PeerSampler) at(i int) int {
	if s.peers != nil {
		return s.peers[i]
	}
	return s.topo.Neighbor(s.node, i)
}

// Sample returns this round's peer subset and advances the round counter. The
// slice lives in a buffer the sampler borrows and gives back before returning
// it, so callers must not retain it (EstimateAll's contract already demands
// the same of its results); see the constructors for how long it stays valid.
func (s *PeerSampler) Sample() []int {
	buf := s.lend.Get()
	picks := (*buf)[:0]
	if s.k <= 0 || s.k >= s.size {
		for i := range s.size {
			picks = append(picks, s.at(i))
		}
	} else {
		picks = s.draw(picks)
	}
	*buf = picks
	s.lend.Put(buf)
	return picks
}

// draw appends this round's k-subset of the universe to picks and advances
// the round counter.
func (s *PeerSampler) draw(picks []int) []int {
	round := s.round
	s.round++
	// Floyd's algorithm: k uniform draws, no rejection loop beyond the
	// single duplicate fallback. The universe's index function is injective,
	// so "index t already picked" is "peer at(t) already in picks" — a scan of
	// at most k entries, which at the k a sampled round uses beats hashing.
	src := network.SplitMix64{State: network.Key(s.seed, network.SamplerTag, uint64(s.node), round)}
	for j := s.size - s.k; j < s.size; j++ {
		p := s.at(int(src.Uint64() % uint64(j+1)))
		for _, q := range picks {
			if q == p {
				p = s.at(j)
				break
			}
		}
		picks = append(picks, p)
	}
	return picks
}
