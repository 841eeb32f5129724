package network

import (
	"math/rand"
	"testing"
)

// mathRandSource reads a SplitMix64 as a math/rand Source, for the reference.
type mathRandSource struct{ SplitMix64 }

func (s *mathRandSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *mathRandSource) Seed(int64)   { panic("unused") }

// TestFloat64MatchesMathRand: every delay, drop and setup draw reads
// SplitMix64.Float64, which must return bit for bit what math/rand's Float64
// returned over the same stream — the draws, and every golden behind them,
// did not move when the math/rand layer went.
func TestFloat64MatchesMathRand(t *testing.T) {
	for k := uint64(0); k < 100_000; k++ {
		src := SplitMix64{State: Key(int64(k), MsgTag, k)}
		ref := rand.New(&mathRandSource{src})
		for d := 0; d < 3; d++ {
			if got, want := src.Float64(), ref.Float64(); got != want {
				t.Fatalf("key %d draw %d: Float64 %v, math/rand %v", k, d, got, want)
			}
		}
	}
}

// TestFloat64ResamplesOne: a word whose top 63 bits round to 2⁶³ would give
// exactly 1; Float64 draws again, as math/rand does.
func TestFloat64ResamplesOne(t *testing.T) {
	src := SplitMix64{State: unmix(^uint64(0)) - 0x9E3779B97F4A7C15}
	ref := rand.New(&mathRandSource{src})
	if got, want := src.Float64(), ref.Float64(); got != want || got >= 1 {
		t.Fatalf("Float64 %v, math/rand %v", got, want)
	}
}

// unmix inverts Mix64.
func unmix(z uint64) uint64 {
	unshift := func(z uint64, k uint) uint64 {
		x := z
		for i := uint(0); i < 64; i += k {
			x = z ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 { // Newton's iteration mod 2⁶⁴
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31) * inverse(0x94D049BB133111EB)
	z = unshift(z, 27) * inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

func TestIntnInRange(t *testing.T) {
	src := SplitMix64{State: Key(1, ScenarioTag)}
	for _, n := range []int{1, 2, 3, 6, 7, 1000, 1<<31 + 1, 1<<62 + 3} {
		for i := 0; i < 10_000; i++ {
			if v := src.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	src.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	src := SplitMix64{State: Key(1, FamilyTag)}
	for n := 0; n <= 64; n++ {
		for r := 0; r < 100; r++ {
			p := src.Perm(n)
			seen := make([]bool, n)
			for _, v := range p {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("Perm(%d) = %v", n, p)
				}
				seen[v] = true
			}
			if len(p) != n {
				t.Fatalf("Perm(%d) has %d entries", n, len(p))
			}
		}
	}
}

// TestKeyTagsDistinct: Key(s, A) = Key(s', B) exactly when s⊕s' = A⊕B, so
// tags that differ in their high 32 bits keep every kind of draw apart for
// seeds in [0, 2³²) — a campaign seed's family pick never reads another
// seed's scenario stream.
func TestKeyTagsDistinct(t *testing.T) {
	tags := map[string]uint64{
		"MsgTag": MsgTag, "SamplerTag": SamplerTag, "SetupTag": SetupTag, "LiarTag": LiarTag,
		"MemDelayTag": MemDelayTag, "ScenarioTag": ScenarioTag, "FamilyTag": FamilyTag,
	}
	for a, ta := range tags {
		for b, tb := range tags {
			if a < b && (ta^tb)>>32 == 0 {
				t.Errorf("%s and %s agree in their high 32 bits: %#x, %#x", a, b, ta, tb)
			}
		}
	}
}
