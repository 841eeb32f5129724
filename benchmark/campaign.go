package main

import (
	"fmt"
	"time"

	"clocksync/internal/campaign"
	"clocksync/internal/des"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// campaignRuns is the size of one campaign.Run call, which is one batch.
const campaignRuns = 512

// campaignFamilies is an honest mix: every family at its within-model
// variant, so a correct checker flags nothing.
const campaignFamilies = "delayskew:2,churn,flash,coldstart"

// campaignMixed runs adversary campaigns seed to verdict. Its op is one
// campaign run; the serial engine of sim_mesh_n64 is used very differently
// here — thousands of short n=7 runs, Sim.Reset between them, generated
// schedules, the online checker attached, two workers streaming.
type campaignMixed struct {
	r        *run
	families string
	warm     int
	calls    int64 // campaign.Run calls made in the timed phase
	cfg      campaign.Config
}

func newCampaignMixed(r *run) *campaignMixed {
	return &campaignMixed{r: r, families: campaignFamilies, warm: r.sized(5)}
}

func (w *campaignMixed) config(call int64, workers int) campaign.Config {
	cfg := w.cfg
	cfg.Seed = w.r.seed + campaignRuns*call
	cfg.Workers = workers
	return cfg
}

func (w *campaignMixed) setup() error {
	mix, err := campaign.ParseFamilyMix(w.families)
	if err != nil {
		return err
	}
	w.cfg = campaign.Config{
		Runs:           w.r.sized(campaignRuns),
		Duration:       5 * simtime.Minute,
		MaxCorruptions: 2,
		Families:       mix,
	}
	w.calls = 0
	for i := 0; i < w.warm; i++ {
		if _, failed := w.call(w.config(warmSeedOffset/campaignRuns+int64(i), 2)); failed > 0 {
			return fmt.Errorf("warm-up campaign %d: %d of %d runs failed", i, failed, w.cfg.Runs)
		}
	}
	return nil
}

// call runs one campaign and counts every run that did not both complete and
// satisfy the checker as failed.
func (w *campaignMixed) call(cfg campaign.Config) (attempted, failed int) {
	res, err := campaign.Run(cfg)
	if res == nil {
		w.r.notef("campaign seed %d: %v", cfg.Seed, err)
		return cfg.Runs, cfg.Runs
	}
	failed = cfg.Runs - res.Completed + len(res.Failures)
	if failed > 0 {
		w.r.notef("campaign seed %d: completed %d of %d, %d failures, err %v", cfg.Seed, res.Completed, cfg.Runs, len(res.Failures), err)
	}
	return cfg.Runs, failed
}

func (w *campaignMixed) batch() (attempted, failed int) {
	t0 := time.Now()
	attempted, failed = w.call(w.config(w.calls, 2))
	if w.r.tracing {
		w.r.tr.add(w.r.name+"/campaign.Run", t0, time.Now())
	}
	w.calls++
	return attempted, failed
}

func (w *campaignMixed) verify() error { return nil }

func (w *campaignMixed) teardown() {}

func (w *campaignMixed) ledger(o *outcome) {
	r, out := w.r, o.layers
	runs := r.sized(256)

	// The same generated scenarios one at a time on one reused simulator,
	// with and without the online checker: the serial cost of a run, the
	// work it does, and what checking it adds.
	var genNs, checkedNs, plainNs float64
	var counts simCounts
	scenarios := make([]scenario.Scenario, runs)
	r.timeLayer("campaign.generate", func() {
		t0 := time.Now()
		for i := range scenarios {
			scenarios[i] = w.cfg.Scenario(r.seed + int64(i))
		}
		genNs = float64(time.Since(t0).Nanoseconds()) / float64(runs)
	})
	sim := des.New(0)
	serial := func(check bool) float64 {
		t0 := time.Now()
		for _, s := range scenarios {
			s.ReuseSim = sim
			s.Check = check
			res, err := scenario.Run(s)
			if err != nil {
				r.notef("serial replay of seed %d: %v", s.Seed, err)
				continue
			}
			if check {
				c := countsOf(res, sim.Fired())
				counts.events += c.events / float64(runs)
				counts.msgs += c.msgs / float64(runs)
				counts.bytes += c.bytes / float64(runs)
				counts.rounds += c.rounds / float64(runs)
				counts.samples += c.samples / float64(runs)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(runs)
	}
	r.timeLayer("check", func() {
		// Two passes each way, the faster kept: the first also warms the
		// simulator's arena.
		checkedNs, plainNs = serial(true), serial(false)
		counts = simCounts{}
		checkedNs, plainNs = min(checkedNs, serial(true)), min(plainNs, serial(false))
	})
	out["campaign.generate_us_per_run"] = genNs / 1e3
	out["check.overhead_share"] = 1 - plainNs/checkedNs

	r.timeLayer("campaign.w1", func() {
		var rates []float64
		for i := int64(0); i < int64(r.sized(3)); i++ {
			t0 := time.Now()
			attempted, failed := w.call(w.config(i, 1))
			rates = append(rates, float64(attempted-failed)/time.Since(t0).Seconds())
		}
		out["campaign.w1_ops_per_s"] = median(rates)
	})

	// The stage table is against the serial cost of one checked run; the
	// timed phase overlaps two of them.
	base := scenarios[0]
	base.Adversary.Corruptions = nil
	base.ReuseSim = sim
	l := simLedger(r, base, counts, base.N-1, false)
	l.rows = append(l.rows,
		ledgerRow{"campaign.generate", 1, genNs},
		ledgerRow{"check", 1, checkedNs - plainNs})
	l.report(r, checkedNs, out)

	// How busy the two workers kept the two cores over the timed phase.
	var cpu, wall time.Duration
	for _, b := range o.batches {
		cpu += b.cpu
		wall += b.wall
	}
	out["campaign.worker_util"] = cpu.Seconds() / (2 * wall.Seconds())
}
