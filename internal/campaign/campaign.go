// Package campaign generates and runs randomized adversary campaigns: seeded
// batches of simulations, each with a randomly drawn delay model, drop rate,
// initial spread and a valid f-limited mobile corruption schedule (Definition
// 2 respected by construction), every run instrumented with the online
// Theorem 5 invariant checker of internal/check. A streaming worker pool
// fans runs across cores — each worker pulls the next seed the moment it
// finishes its current one, reusing its simulator arena between runs — and a
// shrinker minimizes any failing schedule to a smallest reproducer.
// Campaigns are how
// the repo turns "the bounds held on the experiments we thought of" into
// "the bounds held on thousands of schedules nobody picked by hand".
package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"clocksync/internal/adversary"
	"clocksync/internal/check"
	"clocksync/internal/conformance"
	"clocksync/internal/core"
	"clocksync/internal/des"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// Config parameterizes a campaign. The zero value (plus Runs) is a sensible
// LAN-like campaign: 7 processors, f = 2, 30 simulated minutes per run,
// Θ = 5 min, δ = 50 ms, up to 4 corruptions per run, no message loss.
type Config struct {
	N int // processors (default 7)
	F int // per-period fault budget (default (N−1)/3)

	Runs int   // number of simulations (default 100)
	Seed int64 // base seed; run i uses Seed+i

	Duration simtime.Duration // simulated real time per run (default 30 min)
	Theta    simtime.Duration // adversary period Θ (default 5 min)
	Delta    simtime.Duration // delay bound δ for the random delay models (default 50 ms)
	SyncInt  simtime.Duration // local time between Syncs (default 10 s)
	Rho      float64          // hardware drift bound (default 1e-4)

	// InitSpread is the maximum initial clock scatter; each run draws its
	// spread uniformly from [0, InitSpread] (default 50 ms).
	InitSpread simtime.Duration
	// DropProb is the maximum per-run message drop probability; each run
	// draws its rate uniformly from [0, DropProb], and Run refuses a
	// DropProb outside [0, 1]. Message loss is beyond the paper's model —
	// leave it 0 (the default) when checking Theorem 5 exactly.
	DropProb float64
	// MaxCorruptions caps the corruptions per generated schedule (default 4);
	// each run draws its count uniformly from [0, MaxCorruptions].
	MaxCorruptions int

	// Workers caps this campaign's concurrency (default GOMAXPROCS). The
	// actual helper goroutines come from the process-wide simulation worker
	// pool (des.AcquireWorkers), shared with scenario.Sweep and the sharded
	// simulator, so concurrent campaigns and sweeps compose to at most
	// GOMAXPROCS simulation goroutines instead of multiplying.
	Workers int

	// SamplePeers, when positive, runs every generated scenario in
	// sparse-estimation mode (scenario.Scenario.SamplePeers): each node pings
	// a seeded random SamplePeers-of-n subset per round. Must be ≥ 2F+1. The
	// sampled campaign the CI runs drives exactly this knob through the
	// online Theorem 5 checker.
	SamplePeers int

	// Mutate, when non-nil, deliberately alters every node's protocol
	// configuration (via scenario.SyncBuilder). Mutation smoke tests use it
	// to prove the checker has teeth: a loosened convergence function must
	// produce violations.
	Mutate func(*core.Config, scenario.BuildContext)

	// Families, when non-empty, draws each run's scenario from this
	// weighted mix of named adversary families (see Family) instead of the
	// generic generator. Entries with Hostile set run the family's
	// designed-to-fail variant — violations are then expected. Run rejects
	// an invalid mix up front; parse flag strings with ParseFamilyMix.
	Families FamilyMix

	// Conform additionally records every run's span/event stream and
	// replays it through the abstract spec's transition relation
	// (internal/conformance): every observed round must be an allowed
	// ComputeAdjust/SkipRound with the exact Figure 1 arithmetic for the
	// declared F. Refinement violations are reported per failing seed
	// alongside the online checker's.
	Conform bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 7
	}
	if c.F == 0 {
		if c.F = (c.N - 1) / 3; c.F < 1 {
			c.F = 1
		}
	}
	if c.Runs == 0 {
		c.Runs = 100
	}
	if c.Duration == 0 {
		c.Duration = 30 * simtime.Minute
	}
	if c.Theta == 0 {
		c.Theta = 5 * simtime.Minute
	}
	if c.Delta == 0 {
		c.Delta = 50 * simtime.Millisecond
	}
	if c.SyncInt == 0 {
		c.SyncInt = 10 * simtime.Second
	}
	if c.Rho == 0 {
		c.Rho = 1e-4
	}
	if c.InitSpread == 0 {
		c.InitSpread = 50 * simtime.Millisecond
	}
	if c.MaxCorruptions == 0 {
		c.MaxCorruptions = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Failure is one run whose checker recorded at least one violation —
// online Theorem 5 violations, refinement violations, or both.
type Failure struct {
	Seed     int64
	Schedule adversary.Schedule
	// Family names the generating adversary family ("generic" when the
	// campaign ran without a mix) — together with Seed it makes the failure
	// reproducible from the log line alone: -runs 1 -seed <Seed> -family <Family>.
	Family     string
	Violations []check.Violation
	// Dropped counts the run's invariant breaches beyond the checker's record
	// cap (check.Config.Limit): Violations holds the first ones only.
	Dropped int
	// Conform lists the run's refinement violations (Config.Conform).
	Conform []conformance.Violation
}

// Result summarizes a campaign.
type Result struct {
	Runs      int // runs requested
	Completed int // runs that executed (build errors excluded)
	// Failures lists every failing run in seed order; empty means every
	// completed run satisfied all checked invariants.
	Failures        []Failure
	TotalViolations int
	// TotalDropped sums Failure.Dropped: breaches detected but not recorded,
	// which TotalViolations therefore does not count.
	TotalDropped int
	// Refined counts runs replayed through the spec (Config.Conform);
	// RefinedRounds the rounds those replays covered; ConformViolations
	// the refinement violations across all runs.
	Refined           int
	RefinedRounds     int
	ConformViolations int
	// PerFamily breaks the campaign down by generating family, in mix
	// order; nil when the campaign ran without Families.
	PerFamily []FamilyResult
}

// FamilyResult is one family's share of a campaign.
type FamilyResult struct {
	Family     string // canonical name ("churn", "delayskew!", …)
	Runs       int    // runs drawn from this family
	Failures   int    // failing runs
	Violations int    // online + refinement violations
}

// runOutcome is what one campaign run leaves behind: only the failure data
// and the run error, never the full scenario result — workers reuse their
// simulator between runs, so retaining Result.Sim would alias live state, and
// release each result, whose sample log the next run reserves.
type runOutcome struct {
	completed  bool
	family     FamilyWeight // the seed's pick, drawn once by the generator
	schedule   adversary.Schedule
	violations []check.Violation
	dropped    int
	conform    []conformance.Violation
	rounds     int
	err        error
}

// Run executes the campaign: seeds Seed..Seed+Runs−1 are generated and run
// by a streaming pool of Workers goroutines. There is no batch barrier —
// each worker pulls the next unclaimed seed the moment its current run
// finishes, so one straggling run never idles the other workers — and each
// worker reuses a single simulator arena across all its runs
// (scenario.Scenario.ReuseSim) and releases each run's measurement storage
// for the next run on any worker (scenario.Result.Release), keeping
// steady-state campaign throughput allocation-light. Failures and errors are
// reported in seed order regardless of completion order. The returned error joins per-seed
// scenario build/run errors (generator or configuration bugs — invariant
// violations are not errors, they are Failures).
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Families.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.DropProb >= 0 && cfg.DropProb <= 1) { // NaN fails both
		return nil, fmt.Errorf("campaign: DropProb %v outside [0, 1]", cfg.DropProb)
	}
	res := &Result{Runs: cfg.Runs}
	outcomes := make([]runOutcome, cfg.Runs)

	var next atomic.Int64
	work := func() {
		sim := des.New(0) // reset to each run's seed by scenario.Run
		var col *conformance.Collector
		if cfg.Conform {
			col = &conformance.Collector{}
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= cfg.Runs {
				return
			}
			seed := cfg.Seed + int64(i)
			s, fw := cfg.generate(seed)
			outcomes[i].family = fw
			s.ReuseSim = sim
			if col != nil {
				col.Reset()
				s.EventSink = col
				s.SpanSink = col
			}
			r, err := scenario.Run(s)
			if err != nil {
				outcomes[i].err = fmt.Errorf("seed %d: %w", seed, err)
				continue
			}
			outcomes[i].completed = true
			if len(r.Violations) > 0 {
				outcomes[i].schedule = r.Scenario.Adversary
				outcomes[i].violations, outcomes[i].dropped = r.Violations, r.ViolationsDropped
			}
			// The verdict is copied out and the conformance replay reads only
			// the collector and the scenario: the sample log can go back.
			r.Release()
			if col != nil {
				rep, err := conformance.Check(col.Events(), conformance.Config{
					F:      cfg.F,
					WayOff: float64(r.Scenario.WayOff),
				})
				if err != nil {
					outcomes[i].err = fmt.Errorf("seed %d: conformance: %w", seed, err)
					continue
				}
				outcomes[i].rounds = rep.Stats.Rounds
				if len(rep.Violations) > 0 {
					outcomes[i].schedule = r.Scenario.Adversary
					outcomes[i].conform = rep.Violations
				}
			}
		}
	}
	maxHelpers := cfg.Workers - 1
	if maxHelpers > cfg.Runs-1 {
		maxHelpers = cfg.Runs - 1
	}
	helpers := des.AcquireWorkers(maxHelpers)
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

	// perFamily indexes res.PerFamily rows by canonical family name,
	// pre-seeded in mix order so the breakdown is stable.
	var perFamily map[string]*FamilyResult
	if len(cfg.Families) > 0 {
		perFamily = make(map[string]*FamilyResult, len(cfg.Families))
		res.PerFamily = make([]FamilyResult, len(cfg.Families))
		for i, w := range cfg.Families {
			res.PerFamily[i].Family = w.String()
			perFamily[w.String()] = &res.PerFamily[i]
		}
	}
	var errs []error
	for i, o := range outcomes {
		if o.err != nil {
			errs = append(errs, o.err)
			continue
		}
		if !o.completed {
			continue
		}
		res.Completed++
		seed := cfg.Seed + int64(i)
		family := o.family.String()
		fr := perFamily[family] // nil only when Families is empty
		if fr != nil {
			fr.Runs++
		}
		if cfg.Conform {
			res.Refined++
			res.RefinedRounds += o.rounds
		}
		if len(o.violations) > 0 || len(o.conform) > 0 {
			res.TotalViolations += len(o.violations)
			res.TotalDropped += o.dropped
			res.ConformViolations += len(o.conform)
			if fr != nil {
				fr.Failures++
				fr.Violations += len(o.violations) + len(o.conform)
			}
			res.Failures = append(res.Failures, Failure{
				Seed:       seed,
				Schedule:   o.schedule,
				Family:     family,
				Violations: o.violations,
				Dropped:    o.dropped,
				Conform:    o.conform,
			})
		}
	}
	return res, errors.Join(errs...)
}
