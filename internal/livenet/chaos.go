package livenet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/check"
	"clocksync/internal/metrics"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
)

// This file is the chaos harness: it stands up a whole livenet cluster in
// one process on a MemNetwork, wraps every endpoint in a FaultTransport
// driven by one seeded adversary.NetSchedule, and runs the Theorem 5 online
// checker (internal/check) against the live nodes — the same checker, fed
// samples from the same measurement kernel (internal/metrics) the simulator
// uses, pointed at real goroutines instead of simulated clocks.
//
// Time runs compressed: the schedule, the protocol intervals and the checker
// bounds are all in virtual seconds, and Scale says how much wall time one
// virtual second takes (default 25ms, so a 60-virtual-second campaign is
// 1.5s of wall clock). Structured fault windows are exact in virtual time
// and ambient packet fates are pure functions of (seed, route, payload), so
// a chaos run's verdict is reproducible from its seed even though goroutine
// interleaving is not.

// ChaosConfig parameterizes one chaos campaign. All durations and instants
// without a time.Duration type are virtual (simtime units).
type ChaosConfig struct {
	N, F int
	Seed int64 // feeds the fault transports and the memory fabric

	// Schedule is the chaos actually injected into the transports (and the
	// crash-restart clock scrambles applied to nodes).
	Schedule adversary.NetSchedule

	// Declared, when non-nil, is the schedule the checker judges the run
	// against instead of Schedule. The normal case leaves it nil: the checker
	// knows exactly what was injected, and the run must satisfy Theorem 5.
	// An over-budget experiment declares less than it injects — the checker
	// then holds the cluster to guarantees the adversary actually broke, and
	// must report violations (that the harness can detect its own
	// over-budget runs is itself a tested property).
	Declared *adversary.NetSchedule

	// Params carries the analysis constants (Rho, Delta, Theta, SyncInt,
	// MaxWait) in virtual units; N and F are overwritten from this config.
	Params analysis.Params

	// Horizon is the virtual length of the run.
	Horizon simtime.Duration

	// Scale is the wall duration of one virtual second (default 25ms). Keep
	// it large enough that scheduler jitter stays well below the virtual δ.
	Scale time.Duration

	// Offsets are the nodes' initial clock errors (virtual; missing entries
	// are zero).
	Offsets []simtime.Duration

	// Delay optionally gives the memory fabric a link-latency model (virtual
	// seconds, scaled like everything else). Nil delivers immediately.
	Delay network.DelayModel

	// Key enables HMAC authentication inside the cluster.
	Key []byte

	// Retry and DarkAfter are passed through to every node.
	Retry     RetryConfig
	DarkAfter int

	// Observer, when non-nil, additionally receives every node's event
	// stream (the checker is attached internally either way).
	Observer *obs.Observer

	// SpanSink, when non-nil, receives every node's causal spans (rounds,
	// estimates, readings) and also gets the plain event stream if it
	// implements obs.Sink — enough for internal/conformance to refine the
	// run against the abstract spec without a JSONL round-trip. Attaching it
	// enables span emission cluster-wide.
	SpanSink obs.SpanSink

	Logf func(format string, args ...any)
}

// ChaosResult is the outcome of one campaign.
type ChaosResult struct {
	Violations []check.Violation // Theorem 5 breaches, detection order
	Dropped    int               // breaches beyond the checker's record cap
	Bounds     analysis.Bounds   // the bounds the run was held to (virtual)
	SkipBefore simtime.Time      // warm-up cutoff used
	Syncs      []int             // per-node completed Sync executions
	Nodes      []*obs.Recorder   // per-node protocol counters
	Faults     *obs.Recorder     // injected-fault counters, cluster-wide
}

// Err returns the first violation as an error, or nil for a clean run.
func (r *ChaosResult) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("livenet: chaos run violated %s", r.Violations[0])
}

// liveBias adapts a running node to metrics.BiasSource: its bias at any
// queried instant is the node's measurable offset from the host clock,
// rescaled to virtual seconds. The query instant is ignored — live clocks
// can only be read "now" — which is exactly how the harness uses it: every
// sample is taken at the instant its triggering event arrives.
type liveBias struct {
	node  *Node
	scale time.Duration
}

func (b liveBias) Bias(simtime.Time) simtime.Duration {
	return simtime.Duration(b.node.Offset().Seconds() / b.scale.Seconds())
}

// chaosClock maps between wall and virtual time for one run.
type chaosClock struct {
	start time.Time
	scale time.Duration
}

func (c chaosClock) virt(wall time.Time) simtime.Time {
	return simtime.Time(wall.Sub(c.start).Seconds() / c.scale.Seconds())
}

func (c chaosClock) wall(v simtime.Time) time.Time {
	return c.start.Add(time.Duration(float64(v) * float64(c.scale)))
}

func (c chaosClock) wallDur(v simtime.Duration) time.Duration {
	return time.Duration(float64(v) * float64(c.scale))
}

// RunChaos executes one chaos campaign to completion and reports the
// checker's verdict. It blocks for Horizon·Scale of wall time.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("livenet: chaos needs at least one node, got %d", cfg.N)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("livenet: non-positive chaos horizon %v", cfg.Horizon)
	}
	scale := cfg.Scale
	if scale <= 0 {
		scale = 25 * time.Millisecond
	}
	p := cfg.Params
	p.N, p.F = cfg.N, cfg.F
	bounds, err := analysis.Derive(p)
	if err != nil {
		return nil, fmt.Errorf("livenet: chaos parameters: %w", err)
	}
	declared := cfg.Schedule
	if cfg.Declared != nil {
		declared = *cfg.Declared
	}
	if err := declared.Validate(cfg.N, cfg.F, p.Theta); err != nil {
		return nil, fmt.Errorf("livenet: declared schedule: %w", err)
	}

	// The initial spread is measured from the zero offset every node without
	// an entry starts at.
	var lo, hi simtime.Duration
	for _, o := range cfg.Offsets {
		lo, hi = simtime.MinDuration(lo, o), simtime.MaxDuration(hi, o)
	}
	skip := p.WarmupCutoff(hi - lo)

	// One observer serves the whole cluster: livenet stamps every event with
	// its node id, and the checker keys off exactly that.
	observer := obs.NewObserver()
	if cfg.Observer != nil {
		observer.AddSink(obs.SinkFunc(cfg.Observer.Emit))
	}
	if cfg.SpanSink != nil {
		observer.AddSpanSink(cfg.SpanSink)
		if sink, ok := cfg.SpanSink.(obs.Sink); ok {
			observer.AddSink(sink)
		}
	}

	faultRec := obs.NewRecorder()
	mn := NewMemNetwork(MemNetworkConfig{Seed: cfg.Seed, Delay: cfg.Delay, Scale: scale})
	nodes := make([]*Node, cfg.N)
	fts := make([]*FaultTransport, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ft := NewFaultTransport(mn.Transport(i), FaultConfig{
			Seed:     cfg.Seed,
			Node:     i,
			Schedule: cfg.Schedule,
			Scale:    scale,
			Rec:      faultRec,
			Logf:     cfg.Logf,
		})
		fts[i] = ft
		peers := make(map[int]string, cfg.N-1)
		for j := 0; j < cfg.N; j++ {
			if j != i {
				peers[j] = MemAddr(j)
			}
		}
		var off simtime.Duration
		if i < len(cfg.Offsets) {
			off = cfg.Offsets[i]
		}
		node, err := New(Config{
			ID:        i,
			F:         cfg.F,
			Peers:     peers,
			SyncInt:   time.Duration(float64(p.SyncInt) * float64(scale)),
			MaxWait:   time.Duration(float64(p.MaxWait) * float64(scale)),
			WayOff:    time.Duration(float64(bounds.WayOff) * float64(scale)),
			Key:       cfg.Key,
			Transport: ft,
			Retry:     cfg.Retry,
			DarkAfter: cfg.DarkAfter,
			SimOffset: time.Duration(float64(off) * float64(scale)),
			Ops:       OpsConfig{Observer: observer, Logf: cfg.Logf},
		})
		if err != nil {
			for _, prev := range nodes {
				if prev != nil {
					prev.tr.Close()
				}
			}
			return nil, err
		}
		nodes[i] = node
	}
	measure := &metrics.Measurer{
		Clocks:   make([]metrics.BiasSource, cfg.N),
		Schedule: declared.Corruptions(),
		Theta:    p.Theta,
	}
	for i, node := range nodes {
		measure.Clocks[i] = liveBias{node: node, scale: scale}
	}
	checker := check.New(check.Config{
		Measure:    measure,
		Bounds:     bounds,
		SkipBefore: skip,
	})

	// The checker assumes single-threaded use; a live cluster emits from many
	// goroutines and recovery checkpoints fire on timers, so every entry into
	// it is serialized here. closed stops late timers from touching dead
	// state after the run returns.
	var (
		checkMu sync.Mutex
		closed  bool
	)

	// Rebase virtual time 0 to "now": the fault windows, the checker's event
	// timestamps, the recovery checkpoints and the crash scrambles all hang
	// off this one instant.
	clk := chaosClock{start: time.Now(), scale: scale}
	for _, ft := range fts {
		ft.SetStart(clk.start)
	}

	// Every round event of the cluster is one adjustment: measure the live
	// nodes at its instant and hand the checker that sample, translated from
	// wall to virtual units (At: Unix seconds → virtual instant; delta: wall
	// seconds → virtual seconds).
	observer.AddSink(obs.SinkFunc(func(e obs.Event) {
		if e.Kind != obs.KindRound {
			return
		}
		at := clk.virt(time.Unix(0, int64(e.At*1e9)))
		delta := simtime.Duration(e.Fields["delta"] / scale.Seconds())
		checkMu.Lock()
		if !closed {
			checker.Round(measure.Measure(at), e.Node, delta)
		}
		checkMu.Unlock()
	}))

	// Recovery checkpoints run on wall timers at the scaled virtual instants,
	// under the same serialization as the event feed.
	var timers []*time.Timer
	var timerMu sync.Mutex
	schedule := func(v simtime.Time, fn func()) {
		if simtime.Duration(v) > cfg.Horizon {
			return // past the run's end; nothing left to measure
		}
		d := time.Until(clk.wall(v))
		if d < 0 {
			d = 0
		}
		t := time.AfterFunc(d, func() {
			checkMu.Lock()
			if !closed {
				fn()
			}
			checkMu.Unlock()
		})
		timerMu.Lock()
		timers = append(timers, t)
		timerMu.Unlock()
	}
	checker.Attach(schedule)

	// Crash restarts lose clock state: at each crash window's start the
	// victims' clocks take the schedule's Scramble error, which the WayOff
	// recovery branch must then pull back per Lemma 7(iii).
	for _, f := range cfg.Schedule.Faults {
		if f.Kind != adversary.FaultCrash || f.Scramble == 0 {
			continue
		}
		f := f
		for _, victim := range f.Nodes {
			node := nodes[victim]
			scramble := clk.wallDur(f.Scramble)
			schedule(f.From, func() { node.InjectOffset(scramble) })
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	runErrs := make([]error, cfg.N)
	for i, node := range nodes {
		i, node := i, node
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Run(runCtx); err != nil && !errors.Is(err, context.Canceled) {
				runErrs[i] = err
			}
		}()
	}

	horizon := clk.wallDur(cfg.Horizon)
	select {
	case <-time.After(horizon):
	case <-ctx.Done():
	}
	cancel()
	wg.Wait()
	checkMu.Lock()
	closed = true
	checkMu.Unlock()
	timerMu.Lock()
	for _, t := range timers {
		t.Stop()
	}
	timerMu.Unlock()
	for i, err := range runErrs {
		if err != nil {
			return nil, fmt.Errorf("livenet: chaos node %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &ChaosResult{
		Violations: checker.Violations(),
		Dropped:    checker.Dropped(),
		Bounds:     bounds,
		SkipBefore: skip,
		Faults:     faultRec,
	}
	for _, node := range nodes {
		res.Syncs = append(res.Syncs, node.Syncs())
		res.Nodes = append(res.Nodes, node.Metrics())
	}
	return res, nil
}
