package core

import (
	"math/rand"
	"testing"

	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

func benchEstimates(n int) []protocol.Estimate {
	rng := rand.New(rand.NewSource(1))
	ests := make([]protocol.Estimate, n)
	for i := range ests {
		ests[i] = protocol.Estimate{
			Peer: i,
			D:    simtime.Duration(rng.NormFloat64()),
			A:    simtime.Duration(rng.Float64() * 0.05),
			OK:   true,
		}
	}
	return ests
}

// BenchmarkConverge measures the convergence function across cluster sizes:
// it runs once per Sync per processor, so its cost scales the protocol's CPU
// footprint.
func BenchmarkConverge(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		ests := benchEstimates(n)
		f := (n - 1) / 3
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := Converge(f, 1, ests); !ok {
					b.Fatal("unsafe")
				}
			}
		})
	}
}

// TestConvergenceFunctionAllocFree pins the pooled scratch: the Figure 1
// convergence function on a 16-processor estimate vector — the per-round
// arithmetic of every node — must not allocate in steady state.
func TestConvergenceFunctionAllocFree(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately drops items at random under the race
		// detector, so the pooled scratch misses and the count is unstable.
		t.Skip("alloc count not stable under -race")
	}
	ests := benchEstimates(16)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := Converge(5, 1, ests); !ok {
			t.Fatal("unexpected unsafe result")
		}
	})
	if allocs != 0 {
		t.Errorf("Converge allocates: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkConvergeWorstCaseInput exercises quickselect on adversarially
// ordered inputs (sorted, reversed) where a naive pivot would go quadratic.
func BenchmarkConvergeWorstCaseInput(b *testing.B) {
	n := 256
	sorted := make([]protocol.Estimate, n)
	for i := range sorted {
		sorted[i] = protocol.Estimate{Peer: i, D: simtime.Duration(i), OK: true}
	}
	reversed := make([]protocol.Estimate, n)
	for i := range reversed {
		reversed[i] = protocol.Estimate{Peer: i, D: simtime.Duration(n - i), OK: true}
	}
	for name, ests := range map[string][]protocol.Estimate{"sorted": sorted, "reversed": reversed} {
		ests := ests
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Converge(85, 1000000, ests)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
