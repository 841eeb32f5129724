package livenet

import (
	"sort"
	"testing"
	"time"
)

// readNode builds an unstarted node: the snapshot read path works from New,
// before Run, which is what these tests exercise.
func readNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	if cfg.SyncInt == 0 {
		cfg.SyncInt = time.Second
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = 100 * time.Millisecond
	}
	if cfg.WayOff == 0 {
		cfg.WayOff = 5 * time.Second
	}
	if cfg.Transport == nil && cfg.Listen == "" {
		cfg.Transport = NewMemNetwork(MemNetworkConfig{}).Transport(cfg.ID)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { n.closeTransports() })
	return n
}

// TestReadMatchesClock pins Read against the protocol's exact clock: the
// snapshot interpolation must agree with clockNow within scheduling noise,
// including under simulated offset and drift.
func TestReadMatchesClock(t *testing.T) {
	n := readNode(t, Config{SimOffset: 250 * time.Millisecond, SimDriftPPM: 500})
	for i := 0; i < 5; i++ {
		r := n.Read()
		gap := r.Time.Sub(n.clockNow())
		if gap < 0 {
			gap = -gap
		}
		// 500 ppm of drift accrues 0.5 µs/ms; the two readings are nanoseconds
		// apart, so 1 ms of tolerance is three orders of magnitude of slack.
		if gap > time.Millisecond {
			t.Fatalf("Read().Time diverges from clockNow() by %v", gap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReadEpochZeroPrior pins the pre-sync contract: epoch 0 and an
// uncertainty no tighter than WayOff — the node cannot vouch for more than
// "my clock would not be rejected as way off".
func TestReadEpochZeroPrior(t *testing.T) {
	wayOff := 3 * time.Second
	n := readNode(t, Config{WayOff: wayOff})
	r := n.Read()
	if r.Epoch != 0 {
		t.Fatalf("epoch before any round = %d, want 0", r.Epoch)
	}
	if r.Uncertainty < wayOff {
		t.Fatalf("pre-sync uncertainty %v tighter than WayOff %v", r.Uncertainty, wayOff)
	}
}

// TestReadUncertaintyGrows pins the drift-growth contract: uncertainty must
// be monotonically non-decreasing between snapshot publications.
func TestReadUncertaintyGrows(t *testing.T) {
	n := readNode(t, Config{})
	first := n.Read().Uncertainty
	time.Sleep(10 * time.Millisecond)
	if second := n.Read().Uncertainty; second < first {
		t.Fatalf("uncertainty shrank between reads with no new round: %v -> %v", first, second)
	}
}

// TestInjectOffsetWidensUncertainty pins the honesty of the chaos hook: a
// state-loss injection must widen the reported uncertainty by at least the
// injected magnitude, and shift the reading by it.
func TestInjectOffsetWidensUncertainty(t *testing.T) {
	n := readNode(t, Config{})
	before := n.Read()
	const inject = 500 * time.Millisecond
	n.InjectOffset(inject)
	after := n.Read()
	if widened := after.Uncertainty - before.Uncertainty; widened < inject {
		t.Fatalf("uncertainty widened by %v after injecting %v", widened, inject)
	}
	if shift := after.Time.Sub(before.Time); shift < inject/2 {
		t.Fatalf("reading shifted by only %v after injecting %v", shift, inject)
	}
}

// TestReadAllocFree enforces the serve path's core budget: Read is
// allocation-free, whatever the snapshot state.
func TestReadAllocFree(t *testing.T) {
	n := readNode(t, Config{SimOffset: time.Millisecond, SimDriftPPM: 100})
	var sink Reading
	if allocs := testing.AllocsPerRun(1000, func() { sink = n.Read() }); allocs != 0 {
		t.Fatalf("Read allocates %v times per call, budget is 0", allocs)
	}
	_ = sink
}

// TestReadLatency pins the serving latency budget: in-process Read p99 under
// one microsecond. Sampled with per-call wall timing on a single goroutine —
// the wait-free design means contention cannot make the parallel case slower
// per call.
func TestReadLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation dominates sub-microsecond timings")
	}
	n := readNode(t, Config{})

	const samples = 20000
	lat := make([]time.Duration, samples)
	var sink Reading
	for i := range lat {
		t0 := time.Now()
		sink = n.Read()
		lat[i] = time.Since(t0)
	}
	_ = sink
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, p99 := lat[samples/2], lat[samples*99/100]
	t.Logf("Read latency: p50 %v, p99 %v", p50, p99)
	if p99 >= time.Microsecond {
		t.Errorf("Read p99 %v, budget < 1µs", p99)
	}
}
