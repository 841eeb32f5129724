package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(10)
	t1 := t0.Add(5 * Second)
	if t1 != Time(15) {
		t.Fatalf("Add: got %v, want 15s", t1)
	}
	if d := t1.Sub(t0); d != 5*Second {
		t.Fatalf("Sub: got %v, want 5s", d)
	}
	if !t0.Before(t1) || t0.After(t1) {
		t.Fatalf("ordering broken: %v vs %v", t0, t1)
	}
	if t1.Seconds() != 15 {
		t.Fatalf("Seconds: got %v", t1.Seconds())
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(base float64, span float64) bool {
		if math.IsNaN(base) || math.IsInf(base, 0) || math.IsNaN(span) || math.IsInf(span, 0) {
			return true
		}
		// Keep magnitudes in a range where float64 addition is exact enough.
		base = math.Mod(base, 1e9)
		span = math.Mod(span, 1e6)
		t0 := Time(base)
		d := Duration(span)
		got := t0.Add(d).Sub(t0)
		return math.Abs(float64(got-d)) <= 1e-6*math.Max(1, math.Abs(span))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationHelpers(t *testing.T) {
	if Infinity.IsInf() != true {
		t.Fatal("Infinity must report IsInf")
	}
	if (5 * Second).IsInf() {
		t.Fatal("finite duration reports IsInf")
	}
	if got := Duration(-3).Abs(); got != 3 {
		t.Fatalf("Abs: got %v", got)
	}
	if MaxDuration(2, 3) != 3 || MinDuration(2, 3) != 2 {
		t.Fatal("Max/MinDuration broken")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{Infinity, "inf"},
		{5 * Nanosecond, "5ns"},
		{250 * Microsecond, "250.0µs"},
		{50 * Millisecond, "50.00ms"},
		{2 * Second, "2.000s"},
		{10 * Minute, "10.0min"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%v): got %q, want %q", float64(c.d), got, c.want)
		}
	}
}

func TestInterval(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 20}
	if !iv.Contains(10) || !iv.Contains(20) || !iv.Contains(15) {
		t.Fatal("Contains should include endpoints and interior")
	}
	if iv.Contains(9.999) || iv.Contains(20.001) {
		t.Fatal("Contains should exclude exterior")
	}
}
