package network

import "math/bits"

// SplitMix64 is a reseedable splitmix64 stream: cheap to reset — assign State
// — and statistically solid for the few draws taken per key. Every draw of a
// simulated or generated run comes from one of these, keyed with Key by what
// it belongs to: a message's drop and latency, a round's peer subset, a run's
// setup, a lie, a campaign seed's scenario.
type SplitMix64 struct {
	State uint64
}

// Uint64 advances the stream and returns its next word.
func (m *SplitMix64) Uint64() uint64 {
	m.State += 0x9E3779B97F4A7C15
	return Mix64(m.State)
}

// Float64 returns a uniform draw in [0, 1): bit for bit what math/rand's
// Float64 returns over this stream as its Source.
func (m *SplitMix64) Float64() float64 {
	for {
		if f := float64(m.Uint64()>>1) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a draw in [0, n), the high word of the next word times n.
// It panics if n ≤ 0.
func (m *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("network: SplitMix64.Intn of a non-positive bound")
	}
	hi, _ := bits.Mul64(m.Uint64(), uint64(n))
	return int(hi)
}

// Perm returns a uniform permutation of [0, n), shuffled inside out.
func (m *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := m.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Key's tags, one per kind of draw; each comment names the words that single
// a draw out. Two tags differ in their high 32 bits, so for seeds in
// [0, 2³²) no two kinds of draw start from one root (TestKeyTagsDistinct).
const (
	MsgTag      uint64 = 0x6A09E667F3BCC909 // a message's drop and latency: sender, receiver, sequence
	SamplerTag  uint64 = 0xA5A5A5A55A5A5A5A // a round's peer subset: node, round
	SetupTag    uint64 = 0x510E527FADE682D1 // a run's slopes, biases and builder draws: none
	LiarTag     uint64 = 0x3C6EF372FE94F82B // a RandomLiar's noise: liar, requester, instant
	MemDelayTag uint64 = 0x9B05688C2B3E6C1F // a MemNetwork packet's latency: the packet's hash
	ScenarioTag uint64 = 0xBB67AE8584CAA73B // a campaign seed's scenario: none
	FamilyTag   uint64 = 0xA54FF53A5F1D36F1 // a campaign seed's family pick: none
)

// Key hashes what a draw is about — the run's seed, a tag naming the kind of
// draw, the words that single it out — into a SplitMix64 state, so a draw is
// a function of what it is about, not of when the engine reaches it.
func Key(seed int64, tag uint64, words ...uint64) uint64 {
	return extendKey(Mix64(uint64(seed)^tag), words...)
}

// extendKey continues a key's chain with more words:
// extendKey(Key(seed, tag, a), b) is Key(seed, tag, a, b). A caller that keys
// many draws on one prefix — a sender's messages — hashes the prefix once.
func extendKey(x uint64, words ...uint64) uint64 {
	for _, w := range words {
		x = Mix64(x ^ w)
	}
	return x
}

// Mix64 is the splitmix64 finalizer.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
