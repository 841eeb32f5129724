package campaign

import (
	"reflect"
	"runtime"
	"testing"

	"clocksync/internal/simtime"
)

// TestCampaignRunAllocBudget pins what a campaign run allocates on the
// benchmark's family mix, measured over a whole campaign after one warm-up
// campaign has filled the pools: its sample log comes from a released run
// and its scenario's draws from SplitMix64 words on the stack, and its
// envelopes, wire payloads and round buffers from what its worker's
// simulator kept across Reset. Measured 9.2 kB in 86 objects per run; 11.2
// kB in 143 objects when every run built its message layer afresh, and
// 84.5 kB when every run reserved a fresh log too.
func TestCampaignRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cfg := benchmarkMix(t)
	cfg.Runs, cfg.Workers = 256, 2
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cfg.Seed = int64(cfg.Runs)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != cfg.Runs || len(res.Failures) > 0 {
		t.Fatalf("%d of %d runs completed, %d failed", res.Completed, cfg.Runs, len(res.Failures))
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Runs) / 1000
	objects := float64(after.Mallocs-before.Mallocs) / float64(cfg.Runs)
	t.Logf("%.1f kB in %.1f objects per run", perRun, objects)
	if perRun > 16 {
		t.Errorf("%.1f kB per campaign run, budget 16 — a run's sample log stopped coming from released storage", perRun)
	}
	if objects > 100 {
		t.Errorf("%.1f objects per campaign run, budget 100 — a run's message layer stopped coming from its worker's simulator", objects)
	}
}

// TestTwoWorkerCampaignMatchesSerial: released sample logs cross workers —
// a run reserves whatever any worker's run gave back — and a campaign on two
// workers must still report exactly what one worker does, failures and their
// violations included. Under -race it checks the hand-over itself.
func TestTwoWorkerCampaignMatchesSerial(t *testing.T) {
	cfg := benchmarkMix(t)
	cfg.Families = append(cfg.Families, FamilyWeight{Family: FamilyChurn, Weight: 1, Hostile: true})
	cfg.Runs, cfg.Seed, cfg.Duration = 48, 1, 30*simtime.Minute // long enough for churn! to fail
	run := func(workers int) *Result {
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, pair := run(1), run(2)
	if len(serial.Failures) == 0 {
		t.Fatal("no churn! run failed: the comparison covers no violations")
	}
	if !reflect.DeepEqual(serial, pair) {
		t.Errorf("two workers reported differently from one:\none: %+v\ntwo: %+v", serial, pair)
	}
}
