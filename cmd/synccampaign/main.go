// Command synccampaign runs a randomized adversary campaign: thousands of
// seeded simulations, each with a generated f-limited corruption schedule
// and a random delay model, every one checked online against the Theorem 5
// bounds. It exits non-zero if any run violates an invariant, prints each
// failing seed with its first violations, and can shrink failures to minimal
// reproducers.
//
// Usage examples:
//
//	synccampaign -runs 1000 -seed 1
//	synccampaign -runs 200 -seed 1 -shrink -jsonl violations.jsonl
//	synccampaign -runs 100 -conform         # + spec refinement over every run's spans
//	synccampaign -runs 50 -mutate -shrink   # loosened protocol: violations expected
//	synccampaign -runs 250 -family delayskew,churn,flash,coldstart   # weighted mixes: delayskew:2,churn
//	synccampaign -runs 50 -family churn!    # over-budget variant: violations expected
//	synccampaign -runs 50 -family flash -mutate-recovery   # halving disabled: recovery violations expected
//
// See the "Adversary families" section of EXPERIMENTS.md for what each
// family probes and the E22–E25 tables it reproduces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"clocksync/internal/campaign"
	"clocksync/internal/check"
	"clocksync/internal/cliutil"
	"clocksync/internal/core"
	"clocksync/internal/obs"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "synccampaign:", err)
		os.Exit(1)
	}
}

// violationRecord is one JSONL line: the violation plus the seed that
// produced it, enough to replay with -runs 1 -seed <seed>.
type violationRecord struct {
	Seed   int64  `json:"seed"`
	Family string `json:"family,omitempty"`
	check.Violation
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("synccampaign", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		runs     = fs.Int("runs", 100, "number of simulations")
		seed     = fs.Int64("seed", 1, "base seed; run i uses seed+i")
		n        = fs.Int("n", 7, "number of processors")
		f        = fs.Int("f", 2, "per-period fault budget (n ≥ 3f+1)")
		duration = fs.Duration("duration", 30*time.Minute, "simulated real time per run")
		theta    = fs.Duration("theta", 5*time.Minute, "adversary period Θ")
		delta    = fs.Duration("delta", 50*time.Millisecond, "message delay bound δ")
		syncInt  = fs.Duration("syncint", 10*time.Second, "local time between Syncs")
		rho      = fs.Float64("rho", 1e-4, "hardware drift bound ρ")
		drop     = fs.Float64("drop", 0, "max message drop probability (out-of-model; drawn per run)")
		corrupts = fs.Int("corruptions", 4, "max corruptions per generated schedule")
		samplek  = fs.Int("sample-peers", 0, "estimate against a seeded random k-of-n peer subset per round (0 = full mesh; k must be ≥ 2f+1)")
		workers  = fs.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		shrink   = fs.Bool("shrink", false, "minimize each failing schedule to a smallest reproducer")
		conform  = fs.Bool("conform", false, "replay every run's span stream through the abstract Sync-round spec (refinement check; see docs/CONFORMANCE.md)")
		family   = fs.String("family", "", "adversary family mix, comma-separated and optionally weighted (e.g. delayskew:2,churn,flash,coldstart); families: generic, delayskew, churn, flash, coldstart; suffix ! for a designed-to-fail variant (churn!, delayskew!)")
		mutate   = fs.Bool("mutate", false, "loosen the convergence function (no trimming); violations are expected — a checker self-test")
		mutateRc = fs.Bool("mutate-recovery", false, "disable Sync on scheduled victims, so released clocks never halve their distance; Lemma 7(iii) recovery violations are expected — a checker self-test")
		jsonlOut = fs.String("jsonl", "", "append one JSON line per violation to this file")
		traceSp  = fs.String("trace-spans", "", "replay the first failing seed with full event+span tracing into this JSONL file (inspect with tracestat, export with tracestat -perfetto)")
		metrics  = cliutil.AddrVar(fs, "metrics-addr", "", "serve /debug/pprof on this HTTP address while the campaign runs (use host:0 for an OS port)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *samplek > 0 && *samplek < 2*(*f)+1 {
		return fmt.Errorf("-sample-peers %d < 2f+1 = %d: a sampled round could not trim f faulty readings from both sides", *samplek, 2*(*f)+1)
	}

	if *metrics != "" {
		// Long campaigns saturate every core for minutes; a pprof endpoint
		// is how a stuck or slow one gets diagnosed without restarting it.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		mux := obs.NewMux(func(w http.ResponseWriter) error {
			_, err := io.WriteString(w, "# synccampaign exposes no counters; this endpoint exists for /debug/pprof\n")
			return err
		})
		bound, err := obs.Serve(ctx, nil, *metrics, mux)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pprof             http://%s/debug/pprof\n", bound)
	}

	cfg := campaign.Config{
		N:              *n,
		F:              *f,
		Runs:           *runs,
		Seed:           *seed,
		Duration:       simtime.Duration((*duration).Seconds()),
		Theta:          simtime.Duration((*theta).Seconds()),
		Delta:          simtime.Duration((*delta).Seconds()),
		SyncInt:        simtime.Duration((*syncInt).Seconds()),
		Rho:            *rho,
		DropProb:       *drop,
		MaxCorruptions: *corrupts,
		Workers:        *workers,
		Conform:        *conform,
		SamplePeers:    *samplek,
	}
	if *family != "" {
		mix, err := campaign.ParseFamilyMix(*family)
		if err != nil {
			return err
		}
		cfg.Families = mix
	}
	if *mutate {
		cfg.Mutate = func(c *core.Config, _ scenario.BuildContext) { c.F = 0 }
	}
	if *mutateRc {
		prev := cfg.Mutate
		cfg.Mutate = func(c *core.Config, ctx scenario.BuildContext) {
			if prev != nil {
				prev(c, ctx)
			}
			campaign.DisableVictimRecovery(c, ctx)
		}
	}

	start := time.Now()
	res, err := campaign.Run(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "campaign          %d runs (n=%d, f=%d, base seed %d) in %v\n",
		res.Runs, *n, *f, *seed, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "checked           deviation Δ, discontinuity, accuracy, recovery halving\n")
	var dropped string
	if res.TotalDropped > 0 {
		dropped = fmt.Sprintf(" recorded + %d dropped past the per-run record cap", res.TotalDropped)
	}
	fmt.Fprintf(stdout, "result            %d completed, %d failing seeds, %d violations%s\n",
		res.Completed, len(res.Failures), res.TotalViolations, dropped)
	for _, fr := range res.PerFamily {
		fmt.Fprintf(stdout, "family            %-12s %d runs, %d failing, %d violations\n",
			fr.Family, fr.Runs, fr.Failures, fr.Violations)
	}
	if *conform {
		fmt.Fprintf(stdout, "conformance       %d runs refined against the spec, %d rounds replayed, %d refinement violations\n",
			res.Refined, res.RefinedRounds, res.ConformViolations)
	}

	if *jsonlOut != "" && len(res.Failures) > 0 {
		if err := writeJSONL(*jsonlOut, res.Failures); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "violations        appended to %s\n", *jsonlOut)
	}

	for _, fail := range res.Failures {
		fam := fail.Family
		if fam == "" {
			fam = "generic"
		}
		// One self-contained line per failure: family + seed make the run
		// reproducible without the rest of the log.
		fmt.Fprintf(stdout, "\nseed %d family %s: %d violations under %d corruptions (replay: -runs 1 -seed %d -family %s)\n",
			fail.Seed, fam, len(fail.Violations)+len(fail.Conform), len(fail.Schedule.Corruptions),
			fail.Seed, fam)
		printViolations(stdout, fail.Violations, fail.Dropped, 3)
		for i, v := range fail.Conform {
			if i == 3 {
				fmt.Fprintf(stdout, "  … %d more refinement violations\n", len(fail.Conform)-3)
				break
			}
			fmt.Fprintf(stdout, "  refinement: %s\n", v.String())
		}
		if *shrink {
			sr := cfg.Shrink(fail.Seed, fail.Schedule, 0)
			if len(sr.Violations) == 0 {
				fmt.Fprintf(stdout, "  shrink: did not reproduce within %d runs\n", sr.Runs)
				continue
			}
			fmt.Fprintf(stdout, "  shrunk to %d corruptions in %d runs:\n",
				len(sr.Schedule.Corruptions), sr.Runs)
			for _, c := range sr.Schedule.Corruptions {
				fmt.Fprintf(stdout, "    node %d [%v, %v] %#v\n", c.Node, c.From, c.To, c.Behavior)
			}
			printViolations(stdout, sr.Violations, 0, 3)
		}
	}

	if *traceSp != "" && len(res.Failures) > 0 {
		if err := replayWithTrace(cfg, res.Failures[0].Seed, *traceSp); err != nil {
			return fmt.Errorf("replaying seed %d with tracing: %w", res.Failures[0].Seed, err)
		}
		fmt.Fprintf(stdout, "trace             seed %d replayed with spans into %s\n",
			res.Failures[0].Seed, *traceSp)
	}

	if res.TotalViolations > 0 || res.ConformViolations > 0 {
		return fmt.Errorf("%d invariant + %d refinement violations across %d failing seeds",
			res.TotalViolations, res.ConformViolations, len(res.Failures))
	}
	return nil
}

// replayWithTrace re-runs one failing seed bit-for-bit (Config.Scenario is
// deterministic in the seed) with the full event and causal-span stream
// recorded as JSON lines, so a violating round can be followed down to the
// peer estimations that fed its convergence function.
func replayWithTrace(cfg campaign.Config, seed int64, path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONL(fh)
	s := cfg.Scenario(seed)
	s.EventSink = sink
	s.SpanSink = sink
	_, runErr := scenario.Run(s)
	if cerr := sink.Close(); runErr == nil {
		runErr = cerr
	}
	if cerr := fh.Close(); runErr == nil {
		runErr = cerr
	}
	return runErr
}

// printViolations prints up to limit violations, then an ellipsis counting
// the rest: the recorded ones not shown plus the dropped ones the checker
// detected past its record cap.
func printViolations(w io.Writer, vs []check.Violation, dropped, limit int) {
	for i, v := range vs {
		if i == limit {
			fmt.Fprintf(w, "  … %d more\n", len(vs)-limit+dropped)
			return
		}
		fmt.Fprintf(w, "  τ=%v node=%d %s: observed %v > bound %v (%s)\n",
			v.At, v.Node, v.Invariant, v.Observed, v.Bound, v.Detail)
	}
}

// writeJSONL appends one record per violation to path.
func writeJSONL(path string, failures []campaign.Failure) error {
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer fh.Close()
	enc := json.NewEncoder(fh)
	for _, f := range failures {
		for _, v := range f.Violations {
			if err := enc.Encode(violationRecord{Seed: f.Seed, Family: f.Family, Violation: v}); err != nil {
				return err
			}
		}
	}
	return nil
}
