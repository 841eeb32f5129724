package protocol

import "clocksync/internal/network"

// PeerSampler draws the subset of peers a node estimates against each Sync
// round. Full-mesh estimation sends O(n²) messages per round; sampling k
// peers sends O(n·k), trading message complexity against precision exactly
// as the Khanchandani–Lenzen line of work does — with k ≥ 2f+1 the
// convergence function's (f+1)-st order statistics still trim every
// Byzantine estimate, so agreement survives, while the accuracy envelope
// widens with the sparser view (measured empirically in E21).
//
// The subset is a seeded uniform k-subset of the universe per round, keyed by
// (seed, node, round): deterministic for replay, and independent across nodes
// and rounds. A given peer is therefore drawn with probability k/size in
// every round, whatever was drawn before — there is no rotation, and nothing
// promises that a node hears every peer within a Θ window (at n=1024, k=31
// and twelve rounds per window it reaches at most 372 of its 1,023 peers).
//
// The universe is a size and an index function, never a list: the sampler's
// state is the k picks and nothing else, whatever the size — no per-node
// permutation and no per-node neighbour slice, which matters at n=4096.
type PeerSampler struct {
	size  int             // peers in the universe
	at    func(i int) int // the i-th of them, 0 ≤ i < size
	all   []int           // the whole universe, set when sampling is a no-op
	k     int
	seed  int64
	node  int
	round uint64
	out   []int
}

// NewPeerSampler samples k of the given peers per round. When k ≤ 0 or
// k ≥ len(peers) sampling is a no-op: Sample returns the full universe.
func NewPeerSampler(peers []int, k int, seed int64, node int) *PeerSampler {
	s := &PeerSampler{size: len(peers), k: k, seed: seed, node: node}
	if k > 0 && k < len(peers) {
		s.at = func(i int) int { return peers[i] }
		s.out = make([]int, 0, k)
	} else {
		s.all = peers
	}
	return s
}

// NewNeighborSampler samples k of node's topology neighbours per round,
// reading them through Topology.Neighbor so that no neighbour list is built.
// When k ≤ 0 or k ≥ the node's degree sampling is a no-op: the node estimates
// all of its neighbours, and the list is materialised once, here.
func NewNeighborSampler(topo network.Topology, node, k int, seed int64) *PeerSampler {
	s := &PeerSampler{size: topo.Degree(node), k: k, seed: seed, node: node}
	if k > 0 && k < s.size {
		s.at = func(i int) int { return topo.Neighbor(node, i) }
		s.out = make([]int, 0, k)
	} else {
		s.all = topo.Neighbors(node)
	}
	return s
}

// Sample returns this round's peer subset and advances the round counter.
// The returned slice is reused by the next call; callers must not retain it
// across rounds (EstimateAll's contract already demands the same of its
// results).
func (s *PeerSampler) Sample() []int {
	if s.at == nil {
		return s.all
	}
	round := s.round
	s.round++
	// Floyd's algorithm: k uniform draws, no rejection loop beyond the
	// single duplicate fallback. The universe's index function is injective,
	// so "index t already picked" is "peer at(t) already in out" — a scan of
	// at most k entries, which at the k a sampled round uses beats hashing.
	src := network.SplitMix64{State: samplerKey(s.seed, s.node, round)}
	s.out = s.out[:0]
	for j := s.size - s.k; j < s.size; j++ {
		p := s.at(int(src.Uint64() % uint64(j+1)))
		for _, q := range s.out {
			if q == p {
				p = s.at(j)
				break
			}
		}
		s.out = append(s.out, p)
	}
	return s.out
}

// samplerKey hashes (seed, node, round) into the round's draw-stream seed.
func samplerKey(seed int64, node int, round uint64) uint64 {
	x := network.Mix64(uint64(seed) ^ 0xA5A5A5A55A5A5A5A)
	x = network.Mix64(x ^ uint64(uint32(node)))
	x = network.Mix64(x ^ round)
	return x
}
