package scenario

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"clocksync/internal/des"
	"clocksync/internal/simtime"
)

func TestSweepRunsAllSeedsConcurrently(t *testing.T) {
	mk := func(int64) Scenario {
		s := baseScenario()
		s.Duration = 3 * simtime.Minute
		return s
	}
	seeds := []int64{1, 2, 3, 4}
	results, err := Sweep(mk, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	distinct := map[simtime.Duration]bool{}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
		if r.Scenario.Seed != seeds[i] {
			t.Fatalf("result %d has seed %d", i, r.Scenario.Seed)
		}
		distinct[r.Report.MaxDeviation] = true
	}
	if len(distinct) < 2 {
		t.Fatal("all seeds produced identical deviations — seeds not applied")
	}
	worst := WorstDeviation(results)
	for _, r := range results {
		if r.Report.MaxDeviation > worst.Report.MaxDeviation {
			t.Fatal("WorstDeviation did not pick the maximum")
		}
	}
}

func TestSweepMatchesSequentialRuns(t *testing.T) {
	// Concurrency must not change results: each seed's sweep result equals
	// the same scenario run sequentially.
	mk := func(int64) Scenario {
		s := baseScenario()
		s.Duration = 2 * simtime.Minute
		return s
	}
	results, err := Sweep(mk, []int64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range []int64{5, 6} {
		s := mk(seed)
		s.Seed = seed
		seq, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Report.MaxDeviation != results[i].Report.MaxDeviation ||
			seq.MsgsSent != results[i].MsgsSent {
			t.Fatalf("seed %d: sweep and sequential runs differ", seed)
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	mk := func(seed int64) Scenario {
		s := baseScenario()
		if seed == 2 {
			s.N = 0 // invalid
		}
		return s
	}
	results, err := Sweep(mk, []int64{1, 2})
	if err == nil {
		t.Fatal("sweep swallowed an error")
	}
	if !strings.Contains(err.Error(), "seed 2") {
		t.Errorf("error does not name the failed seed: %v", err)
	}
	// Partial results: the good seed's result survives, the bad one is nil.
	if len(results) != 2 {
		t.Fatalf("got %d result slots, want 2", len(results))
	}
	if results[0] == nil {
		t.Error("successful seed's result discarded")
	}
	if results[1] != nil {
		t.Error("failed seed produced a result")
	}
	if worst := WorstDeviation(results); worst != results[0] {
		t.Error("WorstDeviation mishandles nil slots")
	}
}

func TestSweepAllSeedsFail(t *testing.T) {
	mk := func(int64) Scenario {
		s := baseScenario()
		s.N = 0
		return s
	}
	results, err := Sweep(mk, []int64{1, 2, 3})
	if err == nil {
		t.Fatal("sweep swallowed errors")
	}
	for _, want := range []string{"seed 1", "seed 2", "seed 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	if WorstDeviation(results) != nil {
		t.Error("WorstDeviation invented a result from all-nil input")
	}
}

// goroutineID parses the running goroutine's ID out of its stack header —
// test-only plumbing for pinning the worker-pool bound.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	// "goroutine 123 [running]:" → "123"
	rest := strings.TrimPrefix(string(buf), "goroutine ")
	if i := strings.IndexByte(rest, ' '); i > 0 {
		return rest[:i]
	}
	return rest
}

// TestSweepGoroutineBound pins the worker-pool regression: a sweep over many
// seeds must run on at most GOMAXPROCS goroutines, not one goroutine per
// seed. Each mk call records its goroutine; the distinct count is exact (no
// sampling races), so a return to goroutine-per-seed fails deterministically.
func TestSweepGoroutineBound(t *testing.T) {
	var mu sync.Mutex
	workers := map[string]bool{}
	mk := func(int64) Scenario {
		mu.Lock()
		workers[goroutineID()] = true
		mu.Unlock()
		s := baseScenario()
		s.Duration = 30 * simtime.Second
		return s
	}
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if _, err := Sweep(mk, seeds); err != nil {
		t.Fatal(err)
	}
	if got, max := len(workers), runtime.GOMAXPROCS(0); got > max {
		t.Fatalf("sweep used %d goroutines for %d seeds, want <= GOMAXPROCS (%d)",
			got, len(seeds), max)
	}
}

// TestSweepSimReuseReplaysByteIdentically pins the ReuseSim contract at the
// scenario level: running a scenario on a simulator dirtied by a different
// seed must record a byte-identical stream — every event and every span — to
// a fresh-simulator run.
func TestSweepSimReuseReplaysByteIdentically(t *testing.T) {
	run := func(seed int64, sim *des.Sim) []byte {
		s := baseScenario()
		s.Seed = seed
		s.Duration = 2 * simtime.Minute
		s.ReuseSim = sim
		return recordStream(t, s)
	}

	fresh := run(42, nil)

	sim := des.New(0)
	run(7, sim) // dirty the arena with a different seed's full run
	reused := run(42, sim)

	if !bytes.Equal(fresh, reused) {
		t.Fatalf("reused-simulator stream differs from fresh run:\nfresh  %d bytes\nreused %d bytes",
			len(fresh), len(reused))
	}
}

// TestSweepMidFailureOrderingAndJoin pins the documented partial-failure
// contract precisely: failing seeds in the *middle* of a sweep leave nil
// slots at exactly their indices (order preserved around them), and the
// returned error is an errors.Join whose unwrapped parts name exactly the
// failed seeds, in seed order.
func TestSweepMidFailureOrderingAndJoin(t *testing.T) {
	seeds := []int64{10, 11, 12, 13, 14}
	bad := map[int64]bool{11: true, 13: true}
	mk := func(seed int64) Scenario {
		s := baseScenario()
		s.Duration = 2 * simtime.Minute
		if bad[seed] {
			s.N = 0 // fails validation inside Run
		}
		return s
	}
	results, err := Sweep(mk, seeds)
	if err == nil {
		t.Fatal("sweep swallowed mid-sweep failures")
	}
	if len(results) != len(seeds) {
		t.Fatalf("got %d slots, want %d", len(results), len(seeds))
	}
	for i, seed := range seeds {
		if bad[seed] {
			if results[i] != nil {
				t.Errorf("slot %d (failed seed %d) non-nil", i, seed)
			}
			continue
		}
		if results[i] == nil {
			t.Errorf("slot %d (good seed %d) is nil", i, seed)
			continue
		}
		if got := results[i].Scenario.Seed; got != seed {
			t.Errorf("slot %d holds seed %d, want %d — ordering broken", i, got, seed)
		}
	}

	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("sweep error is not an errors.Join: %T", err)
	}
	parts := joined.Unwrap()
	if len(parts) != 2 {
		t.Fatalf("joined error has %d parts, want 2: %v", len(parts), err)
	}
	for i, want := range []string{"seed 11", "seed 13"} {
		if !strings.Contains(parts[i].Error(), want) {
			t.Errorf("part %d = %q, want mention of %q", i, parts[i], want)
		}
	}
}

// TestSweepResultsDoNotAliasLentSim: a sweep worker resets the simulator it
// lends for its next seed, so a result run on it must not hand it out. With
// the worker pool drained, the calling goroutine runs every seed on one
// simulator. A simulator mk supplies is the caller's and stays on the result.
func TestSweepResultsDoNotAliasLentSim(t *testing.T) {
	held := des.AcquireWorkers(runtime.GOMAXPROCS(0))
	defer des.ReleaseWorkers(held)
	short := func() Scenario {
		s := baseScenario()
		s.Duration = simtime.Minute
		return s
	}
	results, err := Sweep(func(int64) Scenario { return short() }, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Sim != nil {
			t.Errorf("seed %d's result holds the worker's simulator, since reset by later seeds (Fired %d)",
				r.Scenario.Seed, r.Sim.Fired())
		}
		if i > 0 && r.Report.MeanDeviation == results[0].Report.MeanDeviation {
			t.Errorf("seeds %d and %d measured the same mean deviation", results[0].Scenario.Seed, r.Scenario.Seed)
		}
	}

	own := des.New(0)
	results, err = Sweep(func(int64) Scenario {
		s := short()
		s.ReuseSim = own
		return s
	}, []int64{4})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Sim != own {
		t.Errorf("a sweep result dropped the simulator its scenario brought (Sim = %p, want %p)", results[0].Sim, own)
	}
}
