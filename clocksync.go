// Package clocksync is a Go implementation of the fault-and-recovery
// tolerant clock synchronization protocol of Barak, Halevi, Herzberg and
// Naor, "Clock Synchronization with Faults and Recoveries" (PODC 2000).
//
// The protocol keeps the logical clocks of n processors synchronized and
// accurate in the presence of an f-limited mobile Byzantine adversary: any
// number of processors may be corrupted over the system's lifetime, as long
// as at most f are corrupted within any window of length Θ and n ≥ 3f+1.
// Corrupted processors recover automatically after release, without any
// fault or recovery detection.
//
// This file is the package's entire public surface, organized in six
// sections:
//
//   - Analysis: the closed-form Theorem 5 calculator (Params, Derive,
//     Provision).
//   - Simulation: deterministic discrete-event experiments (Scenario,
//     RunScenario, Sweep) with adversary schedules, behaviors, topologies
//     and delay models.
//   - Checking & campaigns: the online Theorem 5 invariant checker
//     (WithCheck, Violation) and randomized adversary campaigns with
//     failure shrinking (RunCampaign, CampaignConfig).
//   - Observability: the event stream, causal round spans, latency
//     histograms and counter types shared by the simulator and the live
//     node (Observer, Event, Span, Histogram, Ring, JSONL), attached to a
//     run with RunScenario options. See docs/OBSERVABILITY.md.
//   - Deployment: a real-time UDP node (NodeConfig, NewNode) and an
//     in-process loopback cluster (ClusterConfig, NewCluster) running the
//     same convergence function over authenticated links, exporting
//     Prometheus-style /metrics and /debug/pprof.
//   - Serving: the client-facing read path — lock-free interval-valued
//     readings from a node (Reading, TimeSource, Node.Read), an NTP-style
//     four-timestamp UDP query protocol (WithServeAddr, Client), and the
//     pluggable datagram Transport it all runs over. See docs/SERVING.md.
//
// See the examples directory for runnable entry points.
package clocksync

import (
	"io"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/campaign"
	"clocksync/internal/check"
	"clocksync/internal/livenet"
	"clocksync/internal/metrics"
	"clocksync/internal/network"
	"clocksync/internal/obs"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

// Time is an instant in simulated real time, in seconds.
type Time = simtime.Time

// Duration is a span of simulated time, in seconds.
type Duration = simtime.Duration

// Common durations re-exported for configuration literals.
const (
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
	Minute      = simtime.Minute
	Hour        = simtime.Hour
)

// Seconds converts a float64 second count to a Duration.
func Seconds(s float64) Duration { return simtime.Duration(s) }

// ---------------------------------------------------------------------------
// Analysis — Theorem 5 bounds
// ---------------------------------------------------------------------------

// Params are the model constants and protocol settings of the analysis
// (drift bound ρ, delivery bound δ, adversary period Θ, SyncInt, MaxWait).
type Params = analysis.Params

// Bounds are the guarantees of Theorem 5 derived from Params.
type Bounds = analysis.Bounds

// Derive evaluates Theorem 5: maximum deviation Δ, logical drift ρ̃,
// discontinuity ψ, the recommended WayOff, and the recovery horizon.
func Derive(p Params) (Bounds, error) { return analysis.Derive(p) }

// DefaultParams returns a parameter set representative of a LAN/metro
// deployment for n processors with fault budget f.
func DefaultParams(n, f int) Params { return analysis.DefaultParams(n, f) }

// Provision solves the inverse problem: given a target maximum deviation,
// a hardware drift bound and the adversary period, it returns network and
// protocol parameters whose derived Δ meets the target (or an error when no
// delay bound is fast enough). Set N/F on the result to your cluster size.
func Provision(targetDelta Duration, rho float64, theta Duration) (Params, error) {
	return analysis.Provision(targetDelta, rho, theta)
}

// ---------------------------------------------------------------------------
// Simulation — scenarios and runs
// ---------------------------------------------------------------------------

// Scenario describes a complete simulation: processors, clocks, network,
// protocol parameters, adversary schedule and measurement settings.
type Scenario = scenario.Scenario

// Result is the outcome of a simulation run: the measured report, the
// theoretical bounds it is compared against, the raw sample series, and —
// when an observer was attached — the run's event tallies.
type Result = scenario.Result

// RunOption customizes one RunScenario call without mutating the caller's
// Scenario value.
type RunOption func(*Scenario)

// WithObserver attaches an Observer to the run: it receives one Event per
// sync round, convergence failure, estimation timeout, corruption and
// release, and its Recorder accumulates the run's counters.
func WithObserver(o *Observer) RunOption {
	return func(s *Scenario) { s.Observer = o }
}

// WithEventSink streams the run's events to sink (creating a private
// Observer when none was attached) — the convenience path for "just give me
// the events", e.g. WithEventSink(NewJSONLSink(w)).
func WithEventSink(sink EventSink) RunOption {
	return func(s *Scenario) { s.EventSink = sink }
}

// WithPeerSampling runs the scenario in sparse-estimation mode: each node
// estimates against a seeded random k-of-n peer subset per round instead of
// the full mesh, cutting estimation traffic from O(n²) to O(n·k) messages
// per round. k must be at least 2f+1 so a sampled round can still trim f
// faulty readings from both sides; the Theorem 5 envelope then holds with n
// read as k (the checker accounts for this automatically). Subsets are drawn
// from the scenario seed, so sampled runs replay bit-for-bit.
func WithPeerSampling(k int) RunOption {
	return func(s *Scenario) { s.SamplePeers = k }
}

// WithShards runs the simulation on a sharded event queue: nodes are
// partitioned across shards whose queues execute concurrently inside
// conservative lookahead windows bounded by the delay model's minimum link
// delay. Observable results are independent of the shard count, and a run at
// any n sends, drops and adjusts as the serial engine does — both are
// references — so sharding is purely a wall-clock optimization for large n. Requires a delay model with a positive minimum delay
// (network.MinBounder); incompatible with serial-only surfaces (observers,
// tracing, the online checker). See docs/PERFORMANCE.md, "Scaling the
// simulator".
func WithShards(n int) RunOption {
	return func(s *Scenario) { s.Shards = n }
}

// RunScenario executes a simulation. Options apply to a copy of s, so a
// Scenario value can be reused across calls with different observers.
func RunScenario(s Scenario, opts ...RunOption) (*Result, error) {
	for _, opt := range opts {
		opt(&s)
	}
	return scenario.Run(s)
}

// Sweep runs independently-built scenarios, one per seed, concurrently,
// returning results in seed order. When some seeds fail, the successful
// results are still returned (failed seeds leave nil slots) alongside an
// error joining one descriptive error per failed seed. Each worker reuses
// one simulator across its seeds, so a result run on it has a nil Sim.
func Sweep(mk func(seed int64) Scenario, seeds []int64) ([]*Result, error) {
	return scenario.Sweep(mk, seeds)
}

// WorstDeviation returns the sweep result with the largest measured
// deviation, skipping nil slots from failed seeds.
func WorstDeviation(results []*Result) *Result { return scenario.WorstDeviation(results) }

// Measurement types produced by a run.
type (
	// Report condenses a run: worst deviation, discontinuity, clock rates
	// and per-release recovery records.
	Report = metrics.Report
	// Recovery describes how one released processor rejoined.
	Recovery = metrics.Recovery
	// Sample is one measurement instant: biases, the good set, and the
	// good-set deviation.
	Sample = metrics.Sample
)

// Adversary schedule types (Definition 2): a Schedule lists break-ins; it is
// validated to be f-limited with respect to Θ before a run.
type (
	// Schedule is a set of corruptions — the static description of a mobile
	// adversary strategy.
	Schedule = adversary.Schedule
	// Corruption is one break-in window with the behavior driving the
	// victim.
	Corruption = adversary.Corruption
	// Behavior scripts a corrupted processor.
	Behavior = protocol.Behavior
)

// RotateAdversary builds an f-limited rotating corruption schedule over all
// n processors: the unbounded-total-faults workload of the paper.
func RotateAdversary(n, f int, start Time, dwell, theta Duration, events int, mk func(node int) Behavior) Schedule {
	return adversary.Rotate(n, f, start, dwell, theta, events, mk)
}

// StaticAdversary corrupts a fixed set of nodes for [from, to).
func StaticAdversary(nodes []int, from, to Time, mk func(node int) Behavior) Schedule {
	return adversary.Static(nodes, from, to, mk)
}

// Byzantine behaviors for corrupted processors.
type (
	// Crash keeps the victim silent.
	Crash = adversary.Crash
	// ClockSmash rewrites the victim's clock by Offset on break-in.
	ClockSmash = adversary.ClockSmash
	// RandomLiar answers with uniformly noisy clock readings.
	RandomLiar = adversary.RandomLiar
	// ConsistentLiar reports real time plus a fixed offset to everyone.
	ConsistentLiar = adversary.ConsistentLiar
	// SplitBrain reports different clocks to different halves of the
	// cluster — the attack that exhibits the n ≥ 3f+1 threshold.
	SplitBrain = adversary.SplitBrain
)

// Network topologies and delay models.
type (
	// Topology describes which processors share links.
	Topology = network.Topology
	// DelayModel samples per-message one-way latency.
	DelayModel = network.DelayModel
	// ConstantDelay delivers after a fixed latency.
	ConstantDelay = network.ConstantDelay
	// UniformDelay samples latency uniformly from [Min, Max].
	UniformDelay = network.UniformDelay
	// SpikyDelay adds occasional latency spikes — the workload where
	// min-RTT-of-k estimation pays off.
	SpikyDelay = network.SpikyDelay
)

// NewFullMesh returns the complete topology on n processors (the paper's
// main model).
func NewFullMesh(n int) Topology { return network.NewFullMesh(n) }

// NewTwoCliques builds the §5 counterexample graph on 6f+2 processors.
func NewTwoCliques(f int) Topology { return network.NewTwoCliques(f) }

// NewUniformDelay validates and returns a uniform latency model.
func NewUniformDelay(min, max Duration) UniformDelay {
	return network.NewUniformDelay(min, max)
}

// Builder constructs the protocol node for one processor; Starter is the
// node it returns. Scenarios default to the paper's Sync protocol — set a
// Builder to run a custom or null protocol instead.
type (
	// Builder constructs one processor's protocol node.
	Builder = scenario.Builder
	// BuildContext is what a Builder receives.
	BuildContext = scenario.BuildContext
	// Starter is a protocol node ready to run.
	Starter = scenario.Starter
)

// ---------------------------------------------------------------------------
// Checking & campaigns — machine-checked Theorem 5 invariants
// ---------------------------------------------------------------------------

// Violation is one invariant breach recorded by the online checker: the
// simulated instant, the processor concerned (−1 for whole-good-set
// properties), the invariant name, and the observed value against the bound
// it broke. Runs surface them in Result.Violations.
type Violation = check.Violation

// Invariants the online checker asserts (Violation.Invariant values).
const (
	// InvariantDeviation is Theorem 5(i): good-set deviation ≤ Δ.
	InvariantDeviation = check.InvariantDeviation
	// InvariantStep bounds any single adjustment of a good processor by
	// Δ/2 + ε.
	InvariantStep = check.InvariantStep
	// InvariantAccuracy is the Equation 3 rate envelope over good stretches.
	InvariantAccuracy = check.InvariantAccuracy
	// InvariantRecovery is the Lemma 7(iii) distance-halving schedule after
	// release.
	InvariantRecovery = check.InvariantRecovery
)

// WithCheck attaches the online invariant checker to the run: every Sync
// round is asserted against the Theorem 5 deviation envelope, the per-step
// discontinuity bound and the accuracy envelope, and every release against
// the Lemma 7(iii) halving schedule. Violations appear in Result.Violations
// (at most 64 are recorded; Result.ViolationsDropped counts the rest); the
// run itself is not interrupted.
func WithCheck() RunOption {
	return func(s *Scenario) { s.Check = true }
}

// Campaign types: randomized adversary campaigns run thousands of seeded
// simulations, each with a generated f-limited corruption schedule and a
// random delay model, all checked online.
type (
	// CampaignConfig parameterizes a campaign; its zero value (plus Runs) is
	// a LAN-like 7-processor, f=2 setup.
	CampaignConfig = campaign.Config
	// CampaignResult summarizes a campaign: completed runs and failures.
	CampaignResult = campaign.Result
	// CampaignFailure is one failing run: its seed, schedule and violations.
	CampaignFailure = campaign.Failure
	// ShrinkResult is a minimized failing schedule.
	ShrinkResult = campaign.ShrinkResult
	// AdversaryFamily names a scenario-generation family: "delayskew",
	// "churn", "flash", "coldstart", "generic", or a hostile "name!" variant.
	AdversaryFamily = campaign.Family
	// FamilyWeight is one weighted entry of a family mix.
	FamilyWeight = campaign.FamilyWeight
	// FamilyMix is a weighted set of families; CampaignConfig.Families draws
	// each run's scenario from it (seed-keyed, so mixed-campaign failures
	// replay bit-for-bit as single-family runs).
	FamilyMix = campaign.FamilyMix
	// FamilyResult is the per-family breakdown in CampaignResult.PerFamily.
	FamilyResult = campaign.FamilyResult
)

// RunCampaign executes a randomized adversary campaign across cores. Any
// invariant violations are reported per failing seed in the result;
// CampaignConfig.Shrink minimizes a failing schedule to a smallest
// reproducer.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return campaign.Run(cfg)
}

// ParseFamilyMix parses a family-mix spec like "delayskew:2,churn,flash"
// into a FamilyMix for CampaignConfig.Families. Append "!" for a family's
// designed-to-fail hostile variant (e.g. "churn!").
func ParseFamilyMix(spec string) (FamilyMix, error) {
	return campaign.ParseFamilyMix(spec)
}

// ---------------------------------------------------------------------------
// Observability — events, counters, sinks
// ---------------------------------------------------------------------------

// Observability types shared by the simulator and the live node. An
// Observer fans Events out to sinks and keeps a Recorder of counters; the
// same Observer type attaches to simulations (WithObserver) and to live
// nodes (OpsConfig.Observer).
type (
	// Observer receives a run's event stream and tallies its counters.
	Observer = obs.Observer
	// Event is one structured observation: a timestamp, a kind, the node it
	// concerns, and numeric fields (e.g. the round's adjustment).
	Event = obs.Event
	// EventSink consumes Events; implementations include Ring, JSONL and
	// EventSinkFunc.
	EventSink = obs.Sink
	// EventSinkFunc adapts a function to an EventSink.
	EventSinkFunc = obs.SinkFunc
	// Ring is a fixed-capacity in-memory sink retaining the newest events.
	Ring = obs.Ring
	// JSONL writes events — and, attached as a SpanSink too, spans — as JSON
	// lines: the run's recording, which the tracestat command reads.
	JSONL = obs.JSONL
	// Recorder is a set of atomic counters and gauges describing protocol
	// progress (rounds, messages, authentication failures, adjustments).
	Recorder = obs.Recorder
)

// Event kinds emitted by the simulator and the live node.
const (
	EventRound    = obs.KindRound    // a completed sync round (field "delta")
	EventSkip     = obs.KindSkip     // a round whose convergence failed
	EventCorrupt  = obs.KindCorrupt  // adversary break-in (simulation)
	EventRelease  = obs.KindRelease  // adversary release (simulation)
	EventAuthFail = obs.KindAuthFail // HMAC rejection (live node)
	EventTimeout  = obs.KindTimeout  // estimation timeout (field "peer")
)

// NewObserver returns an Observer fanning events out to the given sinks.
func NewObserver(sinks ...EventSink) *Observer { return obs.NewObserver(sinks...) }

// NewRing returns an in-memory sink retaining the newest capacity events.
func NewRing(capacity int) *Ring { return obs.NewRing(capacity) }

// NewJSONLSink returns a sink writing one JSON object per event to w. It
// also implements SpanSink, so one JSONL can record a run's full stream:
// pass it to both WithEventSink and WithSpanSink, and Close it when done to
// guarantee the file ends on a complete line.
func NewJSONLSink(w io.Writer) *JSONL { return obs.NewJSONL(w) }

// Causal round tracing: with a SpanSink attached, every Sync execution emits
// a round span with per-peer estimation, reading and adjustment child spans,
// linked by span/parent IDs. Tracing costs nothing when no SpanSink is
// attached (one atomic check per round).
type (
	// Span is one completed traced operation in a round's causal tree.
	Span = obs.Span
	// SpanID identifies a span; 0 means "no span".
	SpanID = obs.SpanID
	// SpanSink consumes completed spans; implementations include SpanRing,
	// JSONL and SpanSinkFunc.
	SpanSink = obs.SpanSink
	// SpanSinkFunc adapts a function to a SpanSink.
	SpanSinkFunc = obs.SpanSinkFunc
	// SpanRing is a fixed-capacity in-memory span sink.
	SpanRing = obs.SpanRing
	// SpanField is one key→value entry of a span's numeric payload.
	SpanField = obs.Field
	// SpanFields is a span's numeric payload, stored inline so emitting a
	// fully traced round allocates nothing. Build with SpanF and chained F
	// calls; read with Get/Lookup/Each/Map.
	SpanFields = obs.Fields
	// Histogram is a fixed-layout lock-free histogram of seconds; all
	// Histograms share one log-spaced bucket layout and are mergeable.
	// Recorder embeds four (RTT, estimation error, adjustment magnitude,
	// good-set deviation), exposed on /metrics with p50/p95/p99 gauges.
	Histogram = obs.Histogram
)

// Span names appearing in a round's causal tree.
const (
	SpanRound    = obs.SpanRound    // one Sync execution
	SpanEstimate = obs.SpanEstimate // one peer estimation (send → reply/timeout)
	SpanReading  = obs.SpanReading  // one reading's convergence verdict
	SpanAdjust   = obs.SpanAdjust   // the clock adjustment
)

// EventSample is the periodic measurement event: per-node biases and the
// good-set deviation (fields Biases, Deviation) — what the dashboard and
// tracestat plots consume.
const EventSample = obs.KindSample

// WithSpanSink enables causal round tracing for the run, streaming completed
// spans to sink (creating a private Observer when none was attached).
func WithSpanSink(sink SpanSink) RunOption {
	return func(s *Scenario) { s.SpanSink = sink }
}

// NewSpanRing returns an in-memory sink retaining the newest capacity spans.
func NewSpanRing(capacity int) *SpanRing { return obs.NewSpanRing(capacity) }

// SpanF starts a span field set with one entry; chain further entries with
// the returned value's F method: SpanF("peer", 3).F("rtt", 0.04).
func SpanF(key string, val float64) SpanFields { return obs.F(key, val) }

// HistogramBounds returns the shared histogram bucket edges in seconds,
// ascending; see obs.HistBucketRatio for the quantile accuracy this layout
// buys.
func HistogramBounds() []float64 { return obs.HistogramBounds() }

// ---------------------------------------------------------------------------
// Deployment — live UDP nodes
// ---------------------------------------------------------------------------

// NodeConfig configures a real-time UDP node: the wire/protocol settings
// every cluster member must agree on, plus per-deployment Ops (metrics
// endpoint, event observer, logging).
type NodeConfig = livenet.Config

// OpsConfig is the operational section of a NodeConfig: metrics/pprof HTTP
// address, event observer, and logging.
type OpsConfig = livenet.OpsConfig

// Node is a deployable Sync participant on a real network. While running it
// exports per-node counters (Node.Metrics) and, when Ops.MetricsAddr is
// set, serves /metrics, /status and /debug/pprof over HTTP.
type Node = livenet.Node

// NodeOption customizes one NewNode call without mutating the caller's
// NodeConfig value — the deployment-side options (serving endpoints,
// alternate transports) that the cluster-wide protocol settings in
// NodeConfig deliberately exclude.
type NodeOption func(*NodeConfig)

// NewNode validates cfg, applies the options, opens the node's sockets and
// prepares it to Run.
func NewNode(cfg NodeConfig, opts ...NodeOption) (*Node, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	return livenet.New(cfg)
}

// Cluster runs n live nodes in one process on loopback sockets.
type Cluster = livenet.Cluster

// ClusterConfig parameterizes an in-process live cluster.
type ClusterConfig = livenet.ClusterConfig

// NewCluster opens sockets for all nodes and wires their peer tables.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return livenet.NewCluster(cfg)
}

// ---------------------------------------------------------------------------
// Serving — client-facing time reads
// ---------------------------------------------------------------------------

// Reading is one observation of a synchronized clock: the best-estimate
// time, an uncertainty half-width, and the sync epoch it derives from. The
// contract is interval-valued: the true cluster time lies within
// [Time−Uncertainty, Time+Uncertainty] while the node's Theorem 5 envelope
// holds. Produce one with Node.Read (wait-free, allocation-free) or
// Client.Read/Client.Query.
type Reading = livenet.Reading

// TimeSource is anything producing Readings — a local Node or a remote
// Client. Code consuming synchronized time should depend on this interface.
type TimeSource = livenet.TimeSource

// ServeConfig configures a node's dedicated time-serving endpoint. A node
// always answers serve queries on its sync socket; a ServeConfig adds a
// separate endpoint so client load never contends with protocol traffic.
type ServeConfig = livenet.ServeConfig

// WithServeAddr gives the node a dedicated UDP time-serving endpoint bound
// to addr (host:port; port 0 picks a free port, read it back with
// Node.ServeAddr).
func WithServeAddr(addr string) NodeOption {
	return func(c *NodeConfig) { c.Serve.Addr = addr }
}

// WithServeTransport gives the node a dedicated time-serving endpoint on an
// already-open transport — a MemNetwork endpoint in tests, or a custom
// datagram implementation.
func WithServeTransport(tr Transport) NodeOption {
	return func(c *NodeConfig) { c.Serve.Transport = tr }
}

// Client queries a node's time service over UDP (or any Transport) using the
// four-timestamp exchange and maintains a local disciplined snapshot, so
// Read interpolates between queries without network traffic.
type Client = livenet.Client

// ClientConfig parameterizes a Client: the server address, an optional
// custom transport, and the per-query timeout.
type ClientConfig = livenet.ClientConfig

// NewTimeClient opens a client of the time service at cfg.Server.
func NewTimeClient(cfg ClientConfig) (*Client, error) { return livenet.NewClient(cfg) }

// Transport is the datagram abstraction the live node, the serve path and
// the client all run over: UDP in production, MemNetwork in tests, or a
// fault-injecting wrapper in chaos runs.
type Transport = livenet.Transport

// MemNetwork is an in-process datagram fabric for tests and benchmarks:
// endpoints are addressed "mem://<id>" and delivery is a channel hop,
// optionally through a simulated delay model.
type MemNetwork = livenet.MemNetwork

// MemNetworkConfig tunes a MemNetwork (seed, delay model, time scale).
type MemNetworkConfig = livenet.MemNetworkConfig

// NewMemNetwork builds an empty in-process datagram fabric.
func NewMemNetwork(cfg MemNetworkConfig) *MemNetwork { return livenet.NewMemNetwork(cfg) }

// MemAddr returns the MemNetwork address of node id ("mem://<id>").
func MemAddr(id int) string { return livenet.MemAddr(id) }
