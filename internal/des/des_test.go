package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"clocksync/internal/simtime"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	sim := New(1)
	var order []simtime.Time
	times := []simtime.Time{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		sim.At(at, func() { order = append(order, at) })
	}
	sim.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("fired %d events, want %d", len(order), len(times))
	}
}

func TestSameInstantFIFO(t *testing.T) {
	sim := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		sim.At(7, func() { order = append(order, i) })
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	sim := New(1)
	sim.At(3, func() {
		if sim.Now() != 3 {
			t.Errorf("Now inside event: got %v, want 3", sim.Now())
		}
	})
	sim.Run()
	if sim.Now() != 3 {
		t.Fatalf("final Now: got %v, want 3", sim.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	sim := New(1)
	var fired simtime.Time
	sim.At(10, func() {
		sim.After(5, func() { fired = sim.Now() })
	})
	sim.Run()
	if fired != 15 {
		t.Fatalf("After: fired at %v, want 15", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	sim := New(1)
	sim.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		sim.At(5, func() {})
	})
	sim.Run()
}

// A NaN instant orders neither before nor after anything, so it is refused
// like one in the past. An event at −0 is an event at 0: scheduled at time 0
// among events at +0, it fires in scheduling order.
func TestSchedulingNaNPanics(t *testing.T) {
	sim := New(1)
	mustPanic(t, "At(NaN)", func() { sim.At(simtime.Time(math.NaN()), func() {}) })
	mustPanic(t, "After(NaN)", func() { sim.After(simtime.Duration(math.NaN()), func() {}) })
	if sim.Pending() != 0 {
		t.Fatalf("a refused event left %d pending", sim.Pending())
	}

	var order []int
	for i, at := range []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 0} {
		i := i
		sim.At(simtime.Time(at), func() { order = append(order, i) })
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("events at −0 and +0 fired in order %v, want scheduling order", order)
		}
	}
	if len(order) != 5 || sim.Now() != 0 {
		t.Fatalf("fired %v, now %v", order, sim.Now())
	}
}

func TestCancel(t *testing.T) {
	sim := New(1)
	fired := false
	ev := sim.At(5, func() { fired = true })
	ev.Cancel()
	sim.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel, cancel-after-run and the zero handle must be safe.
	ev.Cancel()
	var zero Event
	zero.Cancel()
}

func TestRunUntil(t *testing.T) {
	sim := New(1)
	var fired []simtime.Time
	for _, at := range []simtime.Time{1, 2, 3, 4, 5} {
		at := at
		sim.At(at, func() { fired = append(fired, at) })
	}
	sim.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3 (%v)", len(fired), fired)
	}
	if sim.Now() != 3 {
		t.Fatalf("Now after RunUntil: got %v, want 3", sim.Now())
	}
	sim.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("second RunUntil fired %d total, want 5", len(fired))
	}
	if sim.Now() != 10 {
		t.Fatalf("Now should advance to horizon even after queue drained: %v", sim.Now())
	}
}

func TestStop(t *testing.T) {
	sim := New(1)
	count := 0
	sim.At(1, func() { count++; sim.Stop() })
	sim.At(2, func() { count++ })
	sim.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt the run: count=%d", count)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []float64 {
		sim := New(seed)
		rng := rand.New(rand.NewSource(sim.Seed()))
		var out []float64
		var step func()
		step = func() {
			out = append(out, float64(sim.Now()))
			if len(out) < 100 {
				sim.After(simtime.Duration(rng.Float64()), step)
			}
		}
		sim.After(0, step)
		sim.Run()
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces — seed not wired in")
	}
}

func TestHeapUnderRandomLoad(t *testing.T) {
	// Insert events at random times, including duplicates, and verify the
	// global firing order matches a sort oracle.
	rng := rand.New(rand.NewSource(7))
	sim := New(7)
	const n = 2000
	want := make([]simtime.Time, 0, n)
	got := make([]simtime.Time, 0, n)
	for i := 0; i < n; i++ {
		at := simtime.Time(rng.Intn(500))
		want = append(want, at)
		at2 := at
		sim.At(at2, func() { got = append(got, at2) })
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sim.Run()
	if len(got) != n {
		t.Fatalf("fired %d, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order diverges from sort oracle at %d: got %v want %v", i, got[i], want[i])
		}
	}
	if sim.Fired() != n {
		t.Fatalf("Fired counter: got %d, want %d", sim.Fired(), n)
	}
}

func TestTicker(t *testing.T) {
	sim := New(1)
	var ticks []simtime.Time
	tk := NewTicker(sim, 10, func(now simtime.Time) { ticks = append(ticks, now) })
	sim.At(35, func() { tk.Stop() })
	sim.Run()
	want := []simtime.Time{10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

// A tick re-arms with the callback bound in NewTicker: once the arena is warm,
// ticking allocates nothing.
func TestTickerAllocFree(t *testing.T) {
	sim := New(1)
	ticks := 0
	NewTicker(sim, 10, func(simtime.Time) { ticks++ })
	allocs := testing.AllocsPerRun(100, func() { sim.RunUntil(sim.Now() + 10) })
	if allocs != 0 {
		t.Errorf("ticker: %v allocs per tick, want 0", allocs)
	}
	if ticks != 101 {
		t.Fatalf("%d ticks over 101 periods", ticks)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker must panic")
		}
	}()
	NewTicker(New(1), 0, func(simtime.Time) {})
}
