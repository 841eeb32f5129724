package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKthSmallestLargest(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if KthSmallest(xs, 1) != 1 || KthSmallest(xs, 3) != 3 || KthSmallest(xs, 5) != 5 {
		t.Fatal("KthSmallest broken")
	}
	if KthLargest(xs, 1) != 5 || KthLargest(xs, 2) != 4 || KthLargest(xs, 5) != 1 {
		t.Fatal("KthLargest broken")
	}
	// The input is scratch: permuted in place, never reallocated or changed
	// as a multiset.
	sort.Float64s(xs)
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if xs[i] != want {
			t.Fatalf("selection changed the values: %v", xs)
		}
	}
}

func TestKthSmallestDuplicatesAndInf(t *testing.T) {
	xs := []float64{2, 2, math.Inf(1), math.Inf(-1), 2}
	if KthSmallest(xs, 1) != math.Inf(-1) {
		t.Fatal("min with -inf")
	}
	if KthSmallest(xs, 2) != 2 || KthSmallest(xs, 4) != 2 {
		t.Fatal("duplicates")
	}
	if KthLargest(xs, 1) != math.Inf(1) {
		t.Fatal("max with +inf")
	}
}

func TestKthOutOfRangePanics(t *testing.T) {
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d must panic", k)
				}
			}()
			KthSmallest([]float64{1, 2, 3}, k)
		}()
	}
}

func TestKthVsSortOracle(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		k := int(kRaw)%len(xs) + 1
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return KthSmallest(xs, k) == sorted[k-1] && KthLargest(xs, k) == sorted[len(xs)-k]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary: %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-12 {
		t.Fatalf("mean: %v", s.Mean)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("stddev: %v", s.Stddev)
	}
	if s.P50 != 3 {
		t.Fatalf("p50: %v", s.P50)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summarize")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if Percentile(sorted, 0) != 10 || Percentile(sorted, 1) != 40 {
		t.Fatal("endpoint percentiles")
	}
	if got := Percentile(sorted, 0.5); got != 25 {
		t.Fatalf("p50: %v", got)
	}
	for _, bad := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v must panic", bad)
				}
			}()
			Percentile(sorted, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty percentile must panic")
			}
		}()
		Percentile(nil, 0.5)
	}()
}

func TestMeanSpread(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 || Mean(nil) != 0 {
		t.Fatal("Mean")
	}
	if Spread([]float64{7, 1, 4}) != 6 || Spread(nil) != 0 {
		t.Fatal("Spread")
	}
}

func TestSpreadNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		return Spread(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFit(t *testing.T) {
	// y = 2x + 1 exactly.
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9}
	slope, intercept := LinearFit(x, y)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit: slope=%v intercept=%v", slope, intercept)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x, y []float64
	for i := 0; i < 1000; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 0.5*xi-3+rng.NormFloat64()*0.01)
	}
	slope, intercept := LinearFit(x, y)
	if math.Abs(slope-0.5) > 1e-3 || math.Abs(intercept+3) > 1e-1 {
		t.Fatalf("noisy fit: slope=%v intercept=%v", slope, intercept)
	}
}

func TestLinearFitDegeneratePanics(t *testing.T) {
	for _, tc := range []struct{ x, y []float64 }{
		{[]float64{1}, []float64{1}},
		{[]float64{1, 2}, []float64{1}},
		{[]float64{3, 3}, []float64{1, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fit(%v, %v) must panic", tc.x, tc.y)
				}
			}()
			LinearFit(tc.x, tc.y)
		}()
	}
}
