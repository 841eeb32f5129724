// Package scenario declaratively describes and runs whole simulations: n
// drifting clocks, a delay-bounded authenticated network, a protocol on
// every node, an f-limited mobile adversary, and a metrics recorder. It is
// the engine under every experiment, example and benchmark in this
// repository.
package scenario

import (
	"fmt"
	"math"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/check"
	"clocksync/internal/clock"
	"clocksync/internal/core"
	"clocksync/internal/des"
	"clocksync/internal/metrics"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// Starter is a protocol node ready to be started. The core Sync node and
// every baseline implement it.
type Starter interface {
	Start()
}

// BuildContext is what a Builder gets for one processor. The harness lives on
// the queue that runs the processor, as does the node SyncBuilder builds for
// it (processors): on a reused engine (ReuseSim, ReuseSharded, Sweep) a harness
// or Sync node a builder keeps past its run is valid until the next run there,
// which re-initialises both in place.
type BuildContext struct {
	Harness  *protocol.Harness
	Index    int
	Scenario *Scenario
	Bounds   analysis.Bounds
	Rand     *network.SplitMix64

	node *core.Node // the processor's Sync node slot; nil outside Run
}

// processor is one processor's slot on the queue that runs it: its harness
// and the Sync node SyncBuilder builds there. The queue owns its slots
// (des.Owned) and keeps them across Reset, and each run re-initialises them in
// place (protocol.Harness.Init, core.Node.Init), keeping the callbacks bound
// to their addresses — so a run on a warm engine allocates no processor. A
// slot is never copied: it is reached through a pointer, and only the run on
// its queue touches it.
type processor struct {
	h    protocol.Harness
	node core.Node
}

// processors is a queue's slot list. A serial simulator runs processor i in
// slot i; shard s of a sharded one runs processors s, s+shards, … in slots 0,
// 1, …, processor i in slot i/shards.
type processors struct{ slots []*processor }

// fit returns the first n slots, growing the list into fresh zeroed slots.
func (p *processors) fit(n int) []*processor {
	if k := n - len(p.slots); k > 0 {
		fresh := make([]processor, k)
		for i := range fresh {
			p.slots = append(p.slots, &fresh[i])
		}
	}
	return p.slots[:n]
}

// Peers returns the processor's topology neighbours. The list is built on
// every call: it is for builders whose node talks to all of them. Sync draws
// its peers from the topology itself (core.New), so a sampled node never
// holds an O(n) list.
func (c BuildContext) Peers() []int { return c.Scenario.Topology.Neighbors(c.Index) }

// Builder constructs the protocol node for one processor. Scenarios default
// to the paper's Sync protocol; baselines provide their own Builders.
type Builder func(BuildContext) Starter

// Scenario is a complete experiment description.
type Scenario struct {
	Name string
	Seed int64

	N int // processors
	F int // per-period fault budget

	Duration simtime.Duration // simulated real time
	Theta    simtime.Duration // adversary period Θ
	Rho      float64          // hardware drift bound ρ

	// Delay is the network latency model; nil defaults to uniform
	// [δ/10, δ] with δ = 50 ms.
	Delay network.DelayModel
	// Topology defaults to a full mesh on N.
	Topology network.Topology
	// DropProb injects message loss beyond the paper's model: a probability
	// in [0, 1]. Run refuses anything else, NaN included.
	DropProb float64

	// SyncInt, MaxWait and WayOff override the derived protocol parameters
	// when non-zero.
	SyncInt simtime.Duration
	MaxWait simtime.Duration
	WayOff  simtime.Duration

	// InitSpread scatters initial biases uniformly over
	// [−InitSpread/2, +InitSpread/2]; InitialBiases (if non-nil) pins them
	// exactly.
	InitSpread    simtime.Duration
	InitialBiases []simtime.Duration
	// Slopes pins hardware clock rates; nil draws them uniformly from the
	// Equation 2 envelope for ρ.
	Slopes []float64
	// Tick, when positive, quantizes every hardware clock's readings to
	// that granularity (real counters tick). It adds up to one Tick of
	// reading error on top of the network-induced ε; keep it well below δ
	// when comparing against the Theorem 5 bounds.
	Tick simtime.Duration

	// Adversary is the corruption schedule; it is validated against (F, Θ)
	// unless UnsafeAdversary is set (experiment E6 deliberately runs
	// over-powered adversaries).
	Adversary       adversary.Schedule
	UnsafeAdversary bool

	// Builder constructs each node; nil means the paper's Sync protocol.
	Builder Builder

	// SamplePeriod for metrics; defaults to 1 s.
	SamplePeriod simtime.Duration
	// SkipValidation disables the Theorem 5 parameter validation (for
	// deliberately out-of-model runs).
	SkipValidation bool

	// Observer, when non-nil, receives the run's observability stream: one
	// shared counter Recorder and a structured event per clock adjustment,
	// skipped round, estimation timeout, periodic sample, corruption and
	// release. An adjustment is a round event: Sync emits its own, and a node
	// built by any other Builder gets one with fields.delta per
	// Harness.Adjust.
	// EventSink attaches one more sink to the run's observer (creating a
	// fresh observer when Observer is nil) — the convenience path for "just
	// give me the events"; an obs.JSONL there is the run's recording.
	Observer  *obs.Observer
	EventSink obs.Sink
	// SpanSink enables causal round tracing: every Sync execution emits a
	// round span with per-peer estimation, reading and adjustment child
	// spans. Like EventSink it creates a fresh observer when Observer is
	// nil. Tracing costs nothing when unset (see obs.Observer.SpansEnabled).
	SpanSink obs.SpanSink

	// Shards is how many shards of the conservative-lookahead simulator
	// (des.ShardedSim) run the scenario; the lookahead is the delay model's
	// MinBound. 0 and 1 both mean one shard, the serial engine: one queue
	// firing every event in (time, sequence) order. Every shard count runs one
	// execution: traffic, stats, every clock's writes, the report — measured
	// after the run from the clocks' trajectories — and the online checker's
	// verdicts are identical. A model without a positive MinBound leaves no
	// safe window, so the run collapses to one shard. Observer, EventSink
	// and SpanSink need one shard: span ids come from one counter, so on two
	// or more shards they would follow how the goroutines interleave.
	Shards int
	// ReuseSharded, when non-nil, is the engine the scenario runs on; its
	// shard count and lookahead, fixed at construction, take precedence over
	// Shards. Run resets it to Seed (des.ShardedSim.Reset), so the run is
	// byte-identical to one on a fresh engine, while each queue keeps its
	// event arena, its lane's envelopes, payloads, outbox storage and round
	// buffers, and its processors' harnesses and Sync nodes (des.Owned) until
	// the engine is dropped. That is what lets campaign and sweep workers
	// amortize allocation across thousands of runs. The caller must not use
	// the engine concurrently, and a harness or Sync node a builder keeps
	// past the run is valid until the next run there.
	ReuseSharded *des.ShardedSim
	// ReuseSim runs the scenario on the one-shard engine this simulator owns
	// (des.OneShard), reused as ReuseSharded is; Result.Sim aliases it. It
	// runs with neither ReuseSharded nor Shards > 1.
	ReuseSim *des.Sim

	// SamplePeers, when positive, runs Sync in sparse-estimation mode: each
	// node pings a seeded random SamplePeers-of-n subset per round instead of
	// the full mesh (core.Config.SamplePeers; keyed by Seed). Cuts rounds
	// from O(n²) to O(n·k) messages at the price of a wider deviation
	// envelope — E21 measures the trade-off.
	SamplePeers int

	// Check runs the invariant checker (internal/check) on the sweep that
	// builds the report, after the run and on either engine: both limits of
	// every instant where a clock is written or the good set changes are
	// asserted against the Theorem 5 deviation envelope and the Equation 3
	// accuracy envelope, every step against the per-step discontinuity
	// bound, and every release against the Lemma 7(iii) halving schedule.
	// It creates no observer and emits no events. Violations are surfaced
	// in Result.Violations; the run itself is not interrupted.
	Check bool
}

// Result is what a run produces. Everything but Recorder is a value the run
// copied out, so it outlives Release.
type Result struct {
	Scenario *Scenario
	Bounds   analysis.Bounds
	// Recorder holds the run's periodic samples and reserves the clocks'
	// write logs; nil after Release.
	Recorder *metrics.Recorder
	Report   metrics.Report
	// MsgsSent and BytesSent total the network traffic of the run.
	MsgsSent  int
	BytesSent int
	// SyncStats holds per-node protocol counters when the run used the
	// default Sync builder (nil entries otherwise).
	SyncStats []*core.Stats
	// Obs is the observer that instrumented the run (nil when the scenario
	// attached no Observer, EventSink or SpanSink — Check alone creates none);
	// EventCounts is its per-kind event tally.
	Obs         *obs.Observer
	EventCounts map[string]int64
	// Sim is the engine's global queue after the run — a one-shard run's one
	// queue — for follow-up measurement; nil on a Sweep result whose engine
	// Sweep lent, since later seeds reset it.
	Sim *des.Sim
	// Violations lists every invariant breach the online checker recorded
	// (nil when the scenario did not set Check), at most check.Config.Limit
	// of them; ViolationsDropped counts the breaches beyond that.
	Violations        []check.Violation
	ViolationsDropped int
}

// Release hands the run's measurement storage back for later runs to reserve
// and sets Recorder to nil. Every Sample the recorder handed out is a view
// into that storage and must not be read afterwards; Report, Violations,
// SyncStats, Bounds, Scenario and the traffic totals stay valid. A result
// that is never released keeps its samples, as Sweep's do.
func (r *Result) Release() {
	if r.Recorder != nil {
		r.Recorder.Release()
		r.Recorder = nil
	}
}

// Params assembles the analysis parameters for the scenario, applying
// defaults.
func (s *Scenario) Params() analysis.Params {
	delay := s.Delay
	if delay == nil {
		delay = network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond)
	}
	delta := delay.Bound()
	maxWait := s.MaxWait
	if maxWait == 0 {
		maxWait = 2 * delta
	}
	syncInt := s.SyncInt
	if syncInt == 0 {
		syncInt = 10 * simtime.Second
	}
	theta := s.Theta
	if theta == 0 {
		theta = 30 * simtime.Minute
	}
	return analysis.Params{
		N:       s.N,
		F:       s.F,
		Rho:     s.Rho,
		Delta:   delta,
		Theta:   theta,
		SyncInt: syncInt,
		MaxWait: maxWait,
	}
}

// logSizes is what the run's recorder reserves: a sample per SamplePeriod
// (the ticker's, plus one spare), and per processor a step per SyncInt — one
// Sync round each — plus the one a first round staggered near 0 adds. The fit
// is tight on purpose: every reserved sample costs N biases whether or not it
// is taken, and a run that outgrows the reservation only pays an allocation.
func (s *Scenario) logSizes() (samples, steps int) {
	return int(s.Duration/s.SamplePeriod) + 1, max(0, int(s.Duration/s.SyncInt)+1)
}

// checkLengths refuses the lengths and clock settings a run with parameters
// p could not use: a NaN or infinite duration never ends, bad slopes and
// biases panic inside the clock or the event queue, a negative or NaN Tick or
// InitSpread would be silently ignored, and readings float64 seconds cannot
// resolve to analysis.Resolution of ε are measured wrongly or break the
// protocol.
func (s *Scenario) checkLengths(p analysis.Params) error {
	bad := func(what string, v any) error {
		return fmt.Errorf("scenario %q: %s %v is out of range", s.Name, what, v)
	}
	switch {
	case !positive(float64(s.Duration)):
		return bad("Duration", s.Duration)
	case !(s.Tick >= 0) || math.IsInf(float64(s.Tick), 1):
		return bad("Tick", s.Tick)
	case !(s.InitSpread >= 0) || math.IsInf(float64(s.InitSpread), 1):
		return bad("InitSpread", s.InitSpread)
	}
	for i, v := range s.Slopes {
		if !positive(v) {
			return bad(fmt.Sprintf("Slopes[%d]", i), v)
		}
	}
	// A clock reads at most |bias| + InitSpread/2 + (1+ρ)·Duration, which
	// float64 seconds must resolve to a fraction of ε.
	coarse := func(what string, v any) error {
		return fmt.Errorf("scenario %q: %s %v puts clock readings where float64 seconds are coarser than %v·ε", s.Name, what, v, analysis.Resolution)
	}
	reach := (1 + s.Rho) * float64(s.Duration)
	if !p.Resolves(reach) {
		return coarse("Duration", s.Duration)
	}
	if reach += float64(s.InitSpread) / 2; !p.Resolves(reach) {
		return coarse("InitSpread", s.InitSpread)
	}
	for i, b := range s.InitialBiases {
		if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			return bad(fmt.Sprintf("InitialBiases[%d]", i), b)
		}
		if !p.Resolves(math.Abs(float64(b)) + reach) {
			return coarse(fmt.Sprintf("InitialBiases[%d]", i), b)
		}
	}
	return nil
}

// positive reports whether v is positive and finite (NaN is not).
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Run executes the scenario and returns its result.
func Run(s Scenario) (*Result, error) {
	if s.N < 1 {
		return nil, fmt.Errorf("scenario %q: need at least one processor", s.Name)
	}
	params := s.Params()
	if err := s.checkLengths(params); err != nil {
		return nil, err
	}
	s.Theta = params.Theta
	s.MaxWait = params.MaxWait
	s.SyncInt = params.SyncInt
	if s.Delay == nil {
		s.Delay = network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond)
	}
	if s.Topology == nil {
		s.Topology = network.NewFullMesh(s.N)
	}
	if s.Topology.N() != s.N {
		return nil, fmt.Errorf("scenario %q: topology size %d != N %d", s.Name, s.Topology.N(), s.N)
	}
	if s.SamplePeriod == 0 {
		s.SamplePeriod = simtime.Second
	}
	if !positive(float64(s.SamplePeriod)) {
		return nil, fmt.Errorf("scenario %q: SamplePeriod %v is not a positive, finite period", s.Name, s.SamplePeriod)
	}

	var bounds analysis.Bounds
	if s.SkipValidation {
		// Out-of-model run: derive what is derivable without enforcing the
		// theorem's preconditions.
		bounds = analysis.Bounds{Eps: params.Eps(), T: params.T(), K: params.K(), C: params.C()}
		bounds.MaxDeviation = 16*bounds.Eps + simtime.Duration(18*params.Rho*float64(bounds.T)) + 4*bounds.C
		bounds.MaxStep = bounds.MaxDeviation/2 + bounds.Eps
		bounds.WayOff = bounds.MaxDeviation + bounds.Eps
	} else {
		b, err := analysis.Derive(params)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		bounds = b
	}
	if s.WayOff == 0 {
		s.WayOff = bounds.WayOff
	}

	if !s.UnsafeAdversary {
		if err := s.Adversary.Validate(s.N, s.F, s.Theta); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if !(s.DropProb >= 0 && s.DropProb <= 1) { // NaN fails both
		return nil, fmt.Errorf("scenario %q: DropProb %v outside [0, 1]", s.Name, s.DropProb)
	}
	if s.SamplePeers > 0 && s.SamplePeers < 2*s.F+1 {
		return nil, fmt.Errorf("scenario %q: SamplePeers %d < 2f+1 = %d — the trimmed extremes would be unsafe",
			s.Name, s.SamplePeers, 2*s.F+1)
	}
	minDelay := network.MinDelay(s.Delay)
	if !(minDelay >= 0) {
		return nil, fmt.Errorf("scenario %q: delay model's minimum %v is not ≥ 0", s.Name, minDelay)
	}

	// One engine runs every scenario: a one-shard simulator is the serial
	// one, and ReuseSim's is the one-shard engine its Sim owns.
	ps := s.ReuseSharded
	switch {
	case ps != nil:
	case s.ReuseSim != nil && s.Shards <= 1:
		ps = des.OneShard(s.ReuseSim)
	default:
		ps = des.NewSharded(s.Seed, s.Shards, minDelay)
	}
	switch {
	case ps.Shards() > 1 && (s.Observer != nil || s.EventSink != nil || s.SpanSink != nil):
		// A span id comes from the observer's one counter, so on two shards
		// the ids would follow how the goroutines interleave.
		return nil, fmt.Errorf("scenario %q: observability sinks need a one-shard engine, not %d shards", s.Name, ps.Shards())
	case s.ReuseSim != nil && ps.Global() != s.ReuseSim:
		return nil, fmt.Errorf("scenario %q: ReuseSim is a one-shard engine: it runs with neither ReuseSharded nor Shards > 1", s.Name)
	}
	ps.Reset(s.Seed)
	sim := ps.Global()
	net := network.NewSharded(ps, s.Topology, s.Delay, s.Seed)
	net.DropProb = s.DropProb

	// Setup draws — slopes, biases and whatever the builders draw — come from
	// one stream keyed by the seed alone, so both engines build the same run.
	rng := &network.SplitMix64{State: network.Key(s.Seed, network.SetupTag)}

	// The clocks are the run's, in a slab: a Result measures them after
	// the engine has moved on. The processors are the queues' (processors).
	stride := ps.Shards()
	slots := make([][]*processor, stride)
	for q := range slots {
		slots[q] = des.Owned[processors](ps.Shard(q)).fit((s.N - q + stride - 1) / stride)
	}
	slotOf := func(i int) *processor { return slots[i%stride][i/stride] }
	locals := make([]clock.Local, s.N)
	clocks := make([]*clock.Local, s.N)
	harnesses := make([]*protocol.Harness, s.N)
	loSlope, hiSlope := clock.SlopeBounds(s.Rho)
	for i := 0; i < s.N; i++ {
		slope := 1.0
		switch {
		case i < len(s.Slopes):
			slope = s.Slopes[i]
		case s.Rho > 0:
			slope = loSlope + rng.Float64()*(hiSlope-loSlope)
		}
		var bias simtime.Duration
		switch {
		case i < len(s.InitialBiases):
			bias = s.InitialBiases[i]
		case s.InitSpread > 0:
			bias = simtime.Duration((rng.Float64() - 0.5) * float64(s.InitSpread))
		}
		hw := clock.NewDrifting(0, simtime.Time(bias), slope)
		if s.Tick > 0 {
			hw = hw.WithTick(s.Tick)
		}
		locals[i].Init(hw)
		clocks[i] = &locals[i]
		harnesses[i] = &slotOf(i).h
		harnesses[i].Init(i, ps.Shard(i%stride), net, clocks[i])
	}

	skipBefore := params.WarmupCutoff(s.InitSpread)

	// The ticker's periodic samples run on the global barrier queue, where
	// every shard is quiesced; the report is measured after the run.
	rec := metrics.NewRecorder(sim, clocks, s.Adversary, s.Theta)
	rec.Reserve(s.logSizes())
	res := &Result{Scenario: &s, Bounds: bounds, Recorder: rec, Sim: sim,
		SyncStats: make([]*core.Stats, s.N)}

	builder := s.Builder
	if builder == nil {
		builder = SyncBuilder(nil)
	}

	observer := s.Observer
	if s.EventSink != nil {
		if observer == nil {
			observer = obs.NewObserver()
		}
		observer.AddSink(s.EventSink)
	}
	if s.SpanSink != nil {
		if observer == nil {
			observer = obs.NewObserver()
		}
		observer.AddSpanSink(s.SpanSink)
	}
	var checker *check.Checker
	if s.Check {
		checker = check.New(check.Config{Schedule: s.Adversary, Bounds: bounds, SkipBefore: skipBefore})
		checker.Attach(rec.At)
	}
	res.Obs = observer
	if observer != nil {
		// Bridge measurement samples into the observability stream: the
		// deviation histogram feeds /metrics quantiles, and sample events give
		// trace consumers (tracestat, the dashboard) per-node biases against
		// the Δ envelope.
		orec := observer.Recorder()
		rec.OnSample(func(sm metrics.Sample) {
			if orec != nil {
				orec.Deviation.Observe(float64(sm.Deviation))
			}
			biases := make([]float64, len(sm.Biases))
			for i, b := range sm.Biases {
				biases[i] = float64(b)
			}
			observer.Emit(obs.Event{
				At: float64(sm.At), Kind: obs.KindSample,
				Biases: biases, Deviation: float64(sm.Deviation),
			})
		})
	}

	syncNodes := make([]*core.Node, s.N)
	for i := 0; i < s.N; i++ {
		harnesses[i].Obs = observer
		node := builder(BuildContext{
			Harness:  harnesses[i],
			Index:    i,
			Scenario: &s,
			Bounds:   bounds,
			Rand:     rng,
			node:     &slotOf(i).node,
		})
		sn, isSync := node.(*core.Node)
		if isSync {
			syncNodes[i] = sn
		}
		// Sync records its own round events (core.Round.Record); any other
		// protocol's adjustments enter the stream here, as the same record.
		if observer != nil && !isSync {
			harnesses[i].OnAdjust = func(at simtime.Time, delta simtime.Duration) {
				observer.Emit(obs.Event{
					At: float64(at), Kind: obs.KindRound, Node: i,
					Fields: map[string]float64{"delta": float64(delta)},
				})
			}
		}
		node.Start()
	}

	s.Adversary.Apply(sim, harnesses)
	rec.Start(s.SamplePeriod)
	ps.RunUntil(simtime.Time(s.Duration))

	stats := make([]core.Stats, s.N) // one slice behind every SyncStats entry
	for i, sn := range syncNodes {
		if sn != nil {
			stats[i] = sn.Stats()
			res.SyncStats[i] = &stats[i]
		}
	}

	res.MsgsSent = net.TotalSent()
	res.BytesSent = net.TotalBytes()
	if rec := observer.Recorder(); rec != nil {
		rec.MessagesSent.Add(int64(net.TotalSent()))
		rec.MessagesReceived.Add(int64(net.TotalDelivered()))
		rec.MessagesDropped.Add(int64(net.TotalDropped()))
		res.EventCounts = observer.EventCounts()
	}
	var visit func(metrics.Sample, int, simtime.Duration)
	if checker != nil {
		visit = checker.Round
	}
	res.Report = rec.BuildReport(metrics.ReportOptions{
		SkipBefore:        skipBefore,
		RecoveryMargin:    bounds.MaxDeviation,
		MinRateWindow:     simtime.MaxDuration(10*s.SyncInt, simtime.Duration(float64(s.Duration)/10)),
		LogicalDriftBound: bounds.LogicalDrift,
	}, visit)
	if checker != nil {
		res.Violations, res.ViolationsDropped = checker.Violations(), checker.Dropped()
	}
	return res, nil
}

// SyncBuilder returns the builder of the paper's Sync protocol with the
// derived parameters, first executions staggered uniformly across SyncInt.
// mutate, when non-nil, overrides the config per processor (ablation
// experiments, E11); scenarios without a Builder run SyncBuilder(nil). Within
// Run the node is the processor's slot, re-initialised in place (see
// BuildContext); a context from anywhere else gets a node of its own.
func SyncBuilder(mutate func(*core.Config, BuildContext)) Builder {
	return func(ctx BuildContext) Starter {
		sc := ctx.Scenario
		cfg := core.Config{
			F:           sc.F,
			SyncInt:     sc.SyncInt,
			MaxWait:     sc.MaxWait,
			WayOff:      sc.WayOff,
			FirstSync:   simtime.Duration(ctx.Rand.Float64() * float64(sc.SyncInt)),
			SamplePeers: sc.SamplePeers,
		}
		if mutate != nil {
			// Only this copy's address leaves the builder, so only a mutated
			// build moves a Config to the heap.
			mutated := cfg
			mutate(&mutated, ctx)
			return ctx.syncNode(mutated)
		}
		return ctx.syncNode(cfg)
	}
}

// syncNode builds the processor's Sync node in its slot, or afresh when the
// context has none.
func (c BuildContext) syncNode(cfg core.Config) *core.Node {
	if c.node == nil {
		return core.New(c.Harness, cfg)
	}
	c.node.Init(c.Harness, cfg)
	return c.node
}
