package scenario

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"clocksync/internal/des"
)

// Sweep runs independently-built scenarios, one per seed, concurrently, and
// returns the results in seed order. Simulations are single-threaded and
// fully independent, so a sweep parallelizes perfectly across cores;
// experiments use it to report worst-over-seeds numbers instead of one
// lucky run.
//
// Concurrency draws from the process-wide simulation worker pool
// (des.AcquireWorkers): the calling goroutine always works, plus up to
// min(GOMAXPROCS−1, len(seeds)−1) helpers if the pool has tokens free. The
// pool is shared with campaign.Run and the sharded simulator's window
// workers, so nested parallelism — a sweep of sharded runs, a campaign
// launched next to a sweep — composes to at most GOMAXPROCS simulation
// goroutines per entry point instead of multiplying
// (TestWorkerBudgetComposes pins the ceiling). Each worker lends one
// one-shard engine (ReuseSharded) to every seed whose scenario brings no
// engine of its own and asks for at most one shard, so steady-state sweeping
// allocates per run, not per event, and builds no processor once warm. A
// result run on an engine Sweep lent has a nil Sim: the worker resets that
// engine for its next seed, and re-initialises in place any harness or Sync
// node a builder kept from the run: one is valid only until the worker's
// next seed. When mk's scenario brings its own ReuseSim, Result.Sim is that
// simulator.
//
// When some seeds fail, Sweep still returns every successful result (failed
// seeds leave a nil slot, preserving seed order) alongside an error joining
// one descriptive error per failed seed — so an experiment can report which
// seed diverged instead of discarding the whole sweep.
//
// mk must build a fresh Scenario per call: scenarios can carry stateful
// values (adversary behaviors with internal state, closure-based delay
// models), and sharing those across concurrent runs would race.
func Sweep(mk func(seed int64) Scenario, seeds []int64) ([]*Result, error) {
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	var next atomic.Int64
	work := func() {
		engine := des.NewSharded(0, 1, 0) // Run resets it to each seed
		for {
			i := int(next.Add(1)) - 1
			if i >= len(seeds) {
				return
			}
			seed := seeds[i]
			s := mk(seed)
			s.Seed = seed
			if s.Name != "" {
				s.Name = fmt.Sprintf("%s/seed%d", s.Name, seed)
			}
			lent := s.ReuseSim == nil && s.ReuseSharded == nil && s.Shards <= 1
			if lent {
				s.ReuseSharded = engine
			}
			results[i], errs[i] = Run(s)
			if lent && results[i] != nil {
				results[i].Sim = nil
			}
		}
	}
	helpers := des.AcquireWorkers(len(seeds) - 1)
	var wg sync.WaitGroup
	for w := 0; w < helpers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is the implicit first worker
	wg.Wait()
	des.ReleaseWorkers(helpers)
	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("seed %d: %w", seeds[i], err))
		}
	}
	return results, errors.Join(failures...)
}

// WorstDeviation returns the result with the largest measured deviation —
// the conservative representative of a sweep. Nil results (failed seeds in
// a partial sweep) are skipped.
func WorstDeviation(results []*Result) *Result {
	var worst *Result
	for _, r := range results {
		if r == nil {
			continue
		}
		if worst == nil || r.Report.MaxDeviation > worst.Report.MaxDeviation {
			worst = r
		}
	}
	return worst
}
