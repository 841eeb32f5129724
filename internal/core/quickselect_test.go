package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"clocksync/internal/stats"
)

// TestQuickselectMatchesSort pins the convergence function's selection,
// stats.KthSmallest/KthLargest, against a sort-based
// oracle on random vectors: every rank of every vector must match the sorted
// order, including vectors with duplicates, adversarial orderings and ±Inf
// sentinels (the convergence function feeds infinities for missing readings).
func TestQuickselectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gens := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"uniform", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
			return xs
		}},
		{"duplicates", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(3))
			}
			return xs
		}},
		{"sorted", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		}},
		{"reversed", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		}},
		{"infinities", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(4) {
				case 0:
					xs[i] = math.Inf(1)
				case 1:
					xs[i] = math.Inf(-1)
				default:
					xs[i] = rng.NormFloat64()
				}
			}
			return xs
		}},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				n := 1 + rng.Intn(40)
				xs := g.gen(n)
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				for k := 1; k <= n; k++ {
					small := append([]float64(nil), xs...)
					if got, want := stats.KthSmallest(small, k), sorted[k-1]; got != want {
						t.Fatalf("stats.KthSmallest(%v, %d) = %v, want %v", xs, k, got, want)
					}
					large := append([]float64(nil), xs...)
					if got, want := stats.KthLargest(large, k), sorted[n-k]; got != want {
						t.Fatalf("stats.KthLargest(%v, %d) = %v, want %v", xs, k, got, want)
					}
				}
			}
		})
	}
}

// TestQuickselectPermutesInPlace documents the scratch-buffer contract: the
// input is permuted, not reallocated — same multiset, same backing array.
func TestQuickselectPermutesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 25)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), xs...)
	stats.KthSmallest(xs, 9)

	sort.Float64s(orig)
	perm := append([]float64(nil), xs...)
	sort.Float64s(perm)
	for i := range orig {
		if orig[i] != perm[i] {
			t.Fatalf("selection changed the multiset at sorted index %d: %v vs %v", i, orig[i], perm[i])
		}
	}
}
