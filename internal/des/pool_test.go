package des

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"clocksync/internal/simtime"
)

// A handle to a fired event must be inert: its arena slot has been recycled,
// so Cancel through the stale handle must not touch whatever event occupies
// the slot now.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	sim := New(1)
	var stale Event
	firedSecond := false
	stale = sim.At(1, func() {
		// This slot is recycled before fn runs; the next At reuses it.
		ev2 := sim.At(2, func() { firedSecond = true })
		if ev2.idx != stale.idx {
			t.Fatalf("expected slot reuse: got slot %d, stale handle holds %d", ev2.idx, stale.idx)
		}
		stale.Cancel() // must NOT cancel ev2
	})
	sim.Run()
	if !firedSecond {
		t.Fatal("stale handle cancelled the event that reused its slot")
	}
}

// Cancelling through a handle whose slot was recycled via the cancel-drain
// path (not the fire path) must equally be a generation-mismatch no-op.
func TestCancelAfterRecycleGenerationMismatch(t *testing.T) {
	sim := New(1)
	ev1 := sim.At(5, func() { t.Fatal("cancelled event fired") })
	ev1.Cancel()
	sim.At(1, func() {}) // drives Step past the cancelled slot, recycling it
	sim.Run()
	// ev1's slot now sits on the free list with a bumped generation; a new
	// event takes it over.
	fired := false
	ev2 := sim.At(10, func() { fired = true })
	if ev2.idx != ev1.idx {
		t.Fatalf("expected slot reuse: got slot %d, want %d", ev2.idx, ev1.idx)
	}
	ev1.Cancel() // stale generation: no-op
	sim.Run()
	if !fired {
		t.Fatal("stale cancel reached the recycled slot's new event")
	}
}

// The schedule→fire path must not allocate once the arena is warm: this is
// the per-event cost every simulated message delivery and alarm pays.
func TestAfterFirePathAllocFree(t *testing.T) {
	sim := New(1)
	var fn func()
	n := 0
	fn = func() {
		if n++; n < 100 {
			sim.After(1, fn)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		sim.After(1, fn)
		sim.Run()
	})
	if allocs > 0 {
		t.Errorf("After+fire path allocates: %.1f allocs per 100-event run", allocs)
	}
}

// A reset simulator must replay a seed exactly as a fresh one: same firing
// instants, same seed (and so the same draws keyed by it), regardless of what
// the previous run left behind.
func TestResetReplaysByteIdentically(t *testing.T) {
	trace := func(sim *Sim) []float64 {
		rng := rand.New(rand.NewSource(sim.Seed()))
		var out []float64
		var step func()
		step = func() {
			out = append(out, float64(sim.Now()), rng.Float64())
			if len(out) < 200 {
				sim.After(simtime.Duration(1+rng.Int63n(1000)), step)
			}
		}
		sim.After(0, step)
		sim.Run()
		return out
	}

	fresh := trace(New(42))

	// Dirty the reused simulator with a different-seed run plus leftover
	// scheduled and cancelled events, then reset.
	reused := New(7)
	trace(reused)
	reused.After(3, func() {})
	reused.After(9, func() {}).Cancel()
	reused.Reset(42)
	if reused.Pending() != 0 || reused.Now() != 0 || reused.Fired() != 0 {
		t.Fatalf("Reset left state behind: pending=%d now=%v fired=%d",
			reused.Pending(), reused.Now(), reused.Fired())
	}
	replay := trace(reused)

	if len(fresh) != len(replay) {
		t.Fatalf("trace lengths differ: fresh %d, replay %d", len(fresh), len(replay))
	}
	for i := range fresh {
		if fresh[i] != replay[i] {
			t.Fatalf("replay diverges at step %d: fresh %v, replay %v", i, fresh[i], replay[i])
		}
	}
}

// Handles scheduled before a Reset must be inert afterwards, even against
// events the new run places in the same slots.
func TestResetDefusesOldHandles(t *testing.T) {
	sim := New(1)
	old := sim.At(5, func() {})
	sim.Reset(1)
	fired := false
	sim.At(5, func() { fired = true })
	old.Cancel() // generation bumped by Reset: no-op
	sim.Run()
	if !fired {
		t.Fatal("pre-Reset handle cancelled a post-Reset event")
	}
}

// oracleQueue is a brutally simple reference implementation: a slice kept in
// (at, seq) order with eager cancellation. The pooled heap must match its
// firing sequence exactly under any interleaving of After/Cancel/Step.
type oracleQueue struct {
	seq    uint64
	now    simtime.Time
	events []oracleEvent
}

type oracleEvent struct {
	at        simtime.Time
	seq       uint64
	id        int
	cancelled bool
}

// after inserts the event behind every event at or before its instant: its
// sequence number is the largest yet, so that is its (at, seq) place.
func (o *oracleQueue) after(d simtime.Duration, id int) {
	ev := oracleEvent{at: o.now.Add(d), seq: o.seq, id: id}
	o.seq++
	i := sort.Search(len(o.events), func(i int) bool { return o.events[i].at > ev.at })
	o.events = append(o.events, oracleEvent{})
	copy(o.events[i+1:], o.events[i:])
	o.events[i] = ev
}

func (o *oracleQueue) cancel(id int) {
	for i := range o.events {
		if o.events[i].id == id {
			o.events[i].cancelled = true
		}
	}
}

// step fires the next live event and returns its id, or -1 when drained.
func (o *oracleQueue) step() int {
	for len(o.events) > 0 {
		ev := o.events[0]
		o.events = o.events[1:]
		if ev.cancelled {
			continue
		}
		o.now = ev.at
		return ev.id
	}
	return -1
}

// checkAgainstOracle drives the pooled queue and the oracle through the same
// randomized interleaving of schedule/cancel/step operations and fails on the
// first divergence in firing order. The first prefill operations all
// schedule; every event is scheduled a whole number of time units from now,
// fewer than span.
func checkAgainstOracle(t *testing.T, seed int64, ops, prefill, span int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sim := New(seed)
	oracle := &oracleQueue{}

	nextID := 0
	handles := map[int]Event{}
	var simFired, oracleFired []int

	for op := 0; op < ops; op++ {
		r := rng.Intn(10)
		if op < prefill {
			r = 0
		}
		switch {
		case r < 5: // schedule
			id := nextID
			nextID++
			d := simtime.Duration(rng.Intn(span))
			handles[id] = sim.After(d, func() { simFired = append(simFired, id) })
			oracle.after(d, id)
		case r < 7: // cancel a random outstanding handle (possibly stale)
			if len(handles) == 0 {
				continue
			}
			ids := make([]int, 0, len(handles))
			for id := range handles {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			id := ids[rng.Intn(len(ids))]
			handles[id].Cancel()
			oracle.cancel(id)
		default: // step
			sim.Step()
			if id := oracle.step(); id >= 0 {
				oracleFired = append(oracleFired, id)
				delete(handles, id) // handle is now stale; keep some around too
			}
		}
	}
	sim.Run()
	for {
		id := oracle.step()
		if id < 0 {
			break
		}
		oracleFired = append(oracleFired, id)
	}

	if len(simFired) != len(oracleFired) {
		t.Fatalf("seed %d: fired %d events, oracle fired %d", seed, len(simFired), len(oracleFired))
	}
	for i := range simFired {
		if simFired[i] != oracleFired[i] {
			t.Fatalf("seed %d: firing order diverges at %d: sim %d, oracle %d",
				seed, i, simFired[i], oracleFired[i])
		}
	}
}

// TestEventPoolOracle interleaves After/Cancel/Step randomly across many
// seeds and checks the pooled heap against the sorted-slice oracle.
func TestEventPoolOracle(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		checkAgainstOracle(t, seed, 400, 0, 50)
	}
}

// TestEventQueueOracleDeepTies checks a deep queue against the oracle: 1,500
// events scheduled up front and more as it runs, all within eight time units
// of now, so the heap has several levels of full sets of four children, each
// instant holds hundreds of events, and the tie-break on sequence number
// decides most tournaments.
func TestEventQueueOracleDeepTies(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		checkAgainstOracle(t, seed, 4000, 1500, 8)
	}
}

// FuzzEventQueue lets the fuzzer pick the interleaving seed; the corpus
// seeds double as a quick deterministic regression under plain `go test`.
func FuzzEventQueue(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(1234567))
	f.Add(int64(-99))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAgainstOracle(t, seed, 300, 0, 50)
	})
}

// The heap moves 16-byte entries: the whole key and the slot in two words.
func TestHeapEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(heapEnt{}); got != 16 {
		t.Fatalf("heapEnt is %d bytes, want 16", got)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// At refuses to schedule what a heap entry cannot encode: a sequence number
// past 2^40 − 1, or a slot past the arena's 2^24 limit (lowered here, so the
// test does not allocate 16 million slots). Reset restores the sequence, and
// a fired event's slot is free again.
func TestSchedulingLimitsPanic(t *testing.T) {
	sim := New(1)
	sim.seq = maxSeq - 1
	fired := false
	sim.At(1, func() { fired = true })
	mustPanic(t, "At past the last sequence number", func() { sim.At(1, func() {}) })
	sim.Run()
	if !fired {
		t.Fatal("the event with the last sequence number did not fire")
	}
	sim.Reset(1)
	sim.At(2, func() {})

	defer func(n int) { maxSlots = n }(maxSlots)
	maxSlots = 4
	sim = New(1)
	for i := 0; i < maxSlots; i++ {
		sim.At(simtime.Time(i), func() {})
	}
	mustPanic(t, "At past the last arena slot", func() { sim.At(9, func() {}) })
	sim.Step()
	sim.At(9, func() {})
	if sim.Pending() != maxSlots {
		t.Fatalf("%d events pending, want %d", sim.Pending(), maxSlots)
	}
}
