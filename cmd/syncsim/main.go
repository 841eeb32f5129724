// Command syncsim runs one clock-synchronization simulation from flags and
// prints the measured report against the Theorem 5 bounds.
//
// Usage examples:
//
//	syncsim -n 10 -f 3 -duration 1h
//	syncsim -n 7 -f 2 -protocol boundedcf -smash 64 -duration 30m
//	syncsim -n 10 -f 3 -rotate -theta 5m -duration 2h -plot
//	syncsim -n 7 -f 2 -trace-out run.jsonl -trace-spans -duration 10m
//	syncsim -n 7 -f 2 -rotate -dash -duration 10m
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/asciiplot"
	"clocksync/internal/baseline"
	"clocksync/internal/cliutil"
	"clocksync/internal/dash"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// runOpts carries the output/observability settings of one invocation.
type runOpts struct {
	plot        bool
	traceOut    string // -trace-out: the run's recorded event stream
	traceSpans  bool   // -trace-spans: add span records to -trace-out
	dash        bool   // -dash: live terminal dashboard during the run
	metricsAddr string // -metrics-addr: /metrics + /debug/pprof during the run
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "syncsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 7, "number of processors")
		f        = flag.Int("f", 2, "per-period fault budget (n ≥ 3f+1)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		duration = flag.Duration("duration", 30*time.Minute, "simulated real time")
		theta    = flag.Duration("theta", 5*time.Minute, "adversary period Θ")
		rho      = flag.Float64("rho", 1e-4, "hardware drift bound ρ")
		delta    = flag.Duration("delta", 50*time.Millisecond, "message delivery bound δ")
		syncInt  = flag.Duration("syncint", 10*time.Second, "local time between Syncs")
		spread   = flag.Duration("spread", 100*time.Millisecond, "initial clock spread")
		proto    = flag.String("protocol", "sync", "protocol: sync | boundedcf | roundmidpoint | srikanthtoueg | broadcastjoin | ntp")
		smash    = flag.Float64("smash", 0, "smash one clock by this many seconds at t=60s (0 = off)")
		rotate   = flag.Bool("rotate", false, "run a rotating f-limited clock-smashing adversary")
		drop     = flag.Float64("drop", 0, "message drop probability (failure injection)")
		plot     = flag.Bool("plot", false, "print the deviation time series as an ASCII chart")
		traceOut = flag.String("trace-out", "", "write the observability event stream (rounds, skips, corruptions) as JSON lines to this file; readable with tracestat")
		traceSp  = flag.Bool("trace-spans", false, "also record causal spans (round/estimate/reading/adjust) into -trace-out; view with tracestat -perfetto")
		dashFlag = flag.Bool("dash", false, "render a live terminal dashboard (offsets vs Δ, histograms, recent events) during the run")
		metrics  = cliutil.AddrVar(flag.CommandLine, "metrics-addr", "", "serve /metrics and /debug/pprof on this HTTP address for the duration of the run (use host:0 for an OS port)")
		confPath = flag.String("config", "", "load the scenario from a JSON spec file (overrides most flags)")
		provTgt  = flag.Duration("provision", 0, "instead of simulating, compute parameters meeting this deviation target (uses -rho, -theta)")
	)
	flag.Parse()

	opts := runOpts{plot: *plot, traceOut: *traceOut,
		traceSpans: *traceSp, dash: *dashFlag, metricsAddr: *metrics}
	if opts.traceSpans && opts.traceOut == "" {
		return fmt.Errorf("-trace-spans requires -trace-out")
	}

	if *provTgt != 0 {
		return provision(*provTgt, *rho, *theta)
	}
	if *confPath != "" {
		return runFromConfig(*confPath, opts)
	}

	s := scenario.Scenario{
		Name:       "syncsim",
		Seed:       *seed,
		N:          *n,
		F:          *f,
		Duration:   simtime.Duration((*duration).Seconds()),
		Theta:      simtime.Duration((*theta).Seconds()),
		Rho:        *rho,
		Delay:      network.NewUniformDelay(simtime.Duration((*delta).Seconds())/10, simtime.Duration((*delta).Seconds())),
		SyncInt:    simtime.Duration((*syncInt).Seconds()),
		InitSpread: simtime.Duration((*spread).Seconds()),
		DropProb:   *drop,
	}

	switch *proto {
	case "sync":
		// default builder
	case "boundedcf":
		s.Builder = baseline.BoundedCFBuilder(0)
	case "roundmidpoint":
		s.Builder = baseline.RoundMidpointBuilder()
	case "srikanthtoueg":
		s.Builder = baseline.SrikanthTouegBuilder()
	case "broadcastjoin":
		s.Builder = baseline.BroadcastJoinBuilder()
	case "ntp":
		s.Builder = baseline.NTPSlewBuilder(2)
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}

	if *smash != 0 {
		s.Adversary.Corruptions = append(s.Adversary.Corruptions, adversary.Corruption{
			Node: *n - 1, From: 60, To: 61,
			Behavior: adversary.ClockSmash{Offset: simtime.Duration(*smash), Quiet: true},
		})
	}
	if *rotate {
		dwell := 30 * simtime.Second
		step := simtime.Duration(float64(s.Theta+dwell)/float64(*f)) + simtime.Millisecond
		events := int(float64(s.Duration-3*s.Theta) / float64(step))
		if events > 0 {
			s.Adversary = adversary.Rotate(*n, *f, simtime.Time(2*s.Theta), dwell, s.Theta, events,
				func(int) protocol.Behavior {
					return adversary.ClockSmash{Offset: 30 * simtime.Second}
				})
		}
	}

	return execute(s, *proto, opts)
}

// provision answers the deployer's inverse question: what parameters reach
// a given deviation target?
func provision(target time.Duration, rho float64, theta time.Duration) error {
	p, err := analysis.Provision(
		simtime.Duration(target.Seconds()), rho, simtime.Duration(theta.Seconds()))
	if err != nil {
		return err
	}
	b := analysis.MustDerive(p)
	fmt.Printf("to keep clocks within %v with ρ=%g over Θ=%v you need:\n", target, rho, theta)
	fmt.Printf("  message delay bound δ   ≤ %v\n", p.Delta)
	fmt.Printf("  estimation timeout      %v (2δ)\n", p.MaxWait)
	fmt.Printf("  sync interval           %v (K=%d per period)\n", p.SyncInt, b.K)
	fmt.Printf("  recommended WayOff      %v\n", b.WayOff)
	fmt.Printf("  derived guarantees      Δ=%v  ρ̃=%.3g  recovery ≤ %v\n",
		b.MaxDeviation, b.LogicalDrift, b.RecoveryTime)
	fmt.Printf("  (pick n ≥ 3f+1 for your fault budget f)\n")
	return nil
}

// protocolRegistry names every protocol available to JSON specs.
func protocolRegistry() scenario.Registry {
	return scenario.Registry{
		"boundedcf":     baseline.BoundedCFBuilder(0),
		"roundmidpoint": baseline.RoundMidpointBuilder(),
		"srikanthtoueg": baseline.SrikanthTouegBuilder(),
		"broadcastjoin": baseline.BroadcastJoinBuilder(),
		"ntp":           baseline.NTPSlewBuilder(2),
	}
}

// runFromConfig loads a JSON spec and executes it.
func runFromConfig(path string, opts runOpts) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	spec, err := scenario.LoadSpec(fh)
	if err != nil {
		return err
	}
	s, err := spec.Build(protocolRegistry())
	if err != nil {
		return err
	}
	proto := spec.Protocol
	if proto == "" {
		proto = "sync"
	}
	return execute(s, proto, opts)
}

// execute runs the scenario with the requested observability attached and
// prints the report.
func execute(s scenario.Scenario, proto string, opts runOpts) error {
	var observer *obs.Observer
	if opts.traceOut != "" || opts.metricsAddr != "" || opts.dash {
		observer = obs.NewObserver()
		s.Observer = observer
	}

	// closers runs exactly once — on normal return or on SIGINT/SIGTERM — so
	// JSONL trace files always end on a complete line even when the run is
	// interrupted mid-stream.
	var closers []func()
	var closeOnce sync.Once
	closeSinks := func() {
		closeOnce.Do(func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		})
	}
	defer closeSinks()

	if opts.traceOut != "" {
		fh, err := os.Create(opts.traceOut)
		if err != nil {
			return fmt.Errorf("creating event stream file: %w", err)
		}
		sink := obs.NewJSONL(fh)
		observer.AddSink(sink)
		if opts.traceSpans {
			observer.AddSpanSink(sink)
		}
		closers = append(closers, func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "syncsim: closing event stream:", err)
			}
			fh.Close()
		})
	}
	if opts.dash {
		// The Δ envelope is known before the run for in-model parameters;
		// out-of-model scenarios dash without an envelope scale.
		deltaEnv := 0.0
		if b, err := analysis.Derive(s.Params()); err == nil {
			deltaEnv = float64(b.MaxDeviation)
		}
		// The serve panel polls the run's recorder: simulated runs show it
		// empty, but a run that also serves time (metrics-addr deployments
		// feeding clients) gets query rate and reply quantiles live.
		d := dash.New(dash.Config{Out: os.Stdout, N: s.N, Delta: deltaEnv,
			Recorders: func() []*obs.Recorder { return []*obs.Recorder{observer.Recorder()} }})
		observer.AddSink(d)
		observer.AddSpanSink(d)
		closers = append(closers, func() { d.Close() })
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		closeSinks()
		os.Exit(130)
	}()
	if opts.metricsAddr != "" {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		bound, err := obs.Serve(ctx, &wg, opts.metricsAddr, obs.RecorderMux(observer.Recorder()))
		if err != nil {
			cancel()
			return fmt.Errorf("starting metrics endpoint: %w", err)
		}
		defer func() { cancel(); wg.Wait() }()
		fmt.Printf("observability     http://%s/metrics and /debug/pprof during the run\n", bound)
	}

	start := time.Now()
	res, err := scenario.Run(s)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("protocol          %s  (n=%d, f=%d, seed=%d)\n", proto, s.N, s.F, s.Seed)
	fmt.Printf("simulated         %v of real time in %v wall time (%d events)\n",
		time.Duration(float64(s.Duration)*float64(time.Second)),
		elapsed.Round(time.Millisecond), res.Sim.Fired())
	fmt.Printf("messages          %d sent (%0.1f KiB)\n", res.MsgsSent, float64(res.BytesSent)/1024)
	fmt.Println()
	fmt.Printf("Theorem 5 bounds  T=%v  K=%d  C=%v\n", res.Bounds.T, res.Bounds.K, res.Bounds.C)
	fmt.Printf("                  Δ=%v  ρ̃=%.3g  ψ=%v  WayOff=%v\n",
		res.Bounds.MaxDeviation, res.Bounds.LogicalDrift, res.Bounds.Discontinuity, res.Bounds.WayOff)
	fmt.Println()
	fmt.Printf("measured          max deviation   %v  (%.1f%% of bound)\n",
		res.Report.MaxDeviation,
		100*float64(res.Report.MaxDeviation)/float64(res.Bounds.MaxDeviation))
	fmt.Printf("                  mean deviation  %v\n", res.Report.MeanDeviation)
	fmt.Printf("                  discontinuity   %v (ψ bound: good processors only)\n", res.Report.MaxDiscontinuity)
	fmt.Printf("                  largest adjust  %v (recovery jumps included)\n", res.Report.MaxAdjustment)
	fmt.Printf("                  worst |rate−1|  %.3g\n", res.Report.WorstRate)
	if observer != nil && len(res.EventCounts) > 0 {
		kinds := make([]string, 0, len(res.EventCounts))
		for k := range res.EventCounts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Printf("                  events         ")
		for i, k := range kinds {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%s=%d", k, res.EventCounts[k])
		}
		fmt.Println()
	}
	if len(res.Report.Recoveries) > 0 {
		fmt.Println()
		fmt.Println("recoveries:")
		for _, rv := range res.Report.Recoveries {
			status := "never recovered"
			if rv.Ok {
				status = fmt.Sprintf("recovered in %v", rv.Time())
			}
			fmt.Printf("  node %2d released at %8v (distance %v): %s\n",
				rv.Node, rv.ReleasedAt, rv.InitialDistance, status)
		}
	}
	if opts.plot {
		ts, devs := res.Recorder.DeviationSeries()
		fmt.Println()
		fmt.Print(asciiplot.Line(ts, map[string][]float64{"deviation": devs},
			asciiplot.Options{Width: 72, Height: 14, YLabel: "good-set deviation (s)", XLabel: "real time (s)"}))
	}
	return nil
}
