package main

import (
	"math/rand"
	"time"

	"clocksync/internal/adversary"
	"clocksync/internal/clock"
	"clocksync/internal/core"
	"clocksync/internal/des"
	"clocksync/internal/metrics"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// The simulated-round ledger. Nothing inside the simulator is instrumented
// here: the counts come from what a run hands back (Result, Stats,
// Recorder), and each unit cost from a probe that builds the layer through
// its public constructor at the workload's own size and times its methods.
// A layer's cost is its self time — the probe of a layer that calls into
// another (network schedules events, estimation sends messages) has the
// inner layer's measured cost taken off — so the shares can be added up, and
// what they do not add up to is the part of an op nobody has explained.

// unaccountedFlag is the gap the ROADMAP treats as a measurement bug.
const unaccountedFlag = 0.10

type ledgerRow struct {
	stage  string
	count  float64 // per op
	unitNs float64
}

type ledger struct {
	rows    []ledgerRow
	buildNs float64
	bytes   float64 // network bytes per op
}

// Op counts of one probe repetition at full run length: a repetition takes a
// few tens of milliseconds, short enough that the fastest of probeReps of
// them ran between two bursts of interference from the host.
const (
	probeReps      = 7
	probeEvents    = 1 << 18
	probeMessages  = 1 << 17
	probeEstimates = 1 << 16
	probeConverges = 1 << 15
	probeClockRead = 1 << 19 // clock reads, i.e. samples × n
)

// repeated is the lowest cost of probeReps runs of a probe: the undisturbed
// unit cost, to set against an op time that is read off the fast tenth of the
// batches.
func (r *run) repeated(probe func() float64) float64 {
	best := probe()
	for i := r.sized(probeReps); i > 1; i-- {
		if c := probe(); c < best {
			best = c
		}
	}
	return best
}

// simLedger measures the unit cost of every simulator layer at the size of
// scenario s and pairs it with the counts of one op.
func simLedger(r *run, s scenario.Scenario, c simCounts, peers int, sharded bool) *ledger {
	n := s.N
	// Mean events in flight: each message spends the mean link delay
	// (27.5 ms) queued, plus a round timer and a tick per node.
	depth := int(c.msgs*0.0275/float64(s.Duration)) + 2*n
	var eventNs, msgNs, estNs, convNs, sampleNs float64
	l := &ledger{bytes: c.bytes}
	r.timeLayer("des", func() {
		eventNs = r.repeated(func() float64 { return probeEvent(depth, r.sized(probeEvents)) })
	})
	r.timeLayer("network", func() {
		msgNs = r.repeated(func() float64 { return probeNetwork(n, depth, r.sized(probeMessages), sharded) })
	})
	r.timeLayer("protocol", func() {
		estNs = r.repeated(func() float64 { return probeEstimate(n, peers, r.sized(probeEstimates), sharded) })
	})
	r.timeLayer("core", func() {
		convNs = r.repeated(func() float64 { return probeConverge(peers+1, s.F, r.sized(probeConverges)) })
	})
	r.timeLayer("metrics", func() {
		sampleNs = r.repeated(func() float64 { return probeSample(n, s.Theta, r.sized(probeClockRead)/n+1) })
	})
	r.timeLayer("scenario", func() {
		l.buildNs = r.repeated(func() float64 { return probeBuild(s) })
	})

	// One message is one Send, one queued event and one delivery; one
	// estimate is a request and a reply plus the round's share of its timer.
	msgSelf := max(0, msgNs-eventNs)
	estSelf := max(0, estNs-2*msgNs)
	l.rows = []ledgerRow{
		{"des", c.events, eventNs},
		{"network", c.msgs, msgSelf},
		{"protocol", c.msgs / 2, estSelf},
		{"core", c.rounds, convNs},
		{"metrics", c.samples, sampleNs},
	}
	r.notef("probe sizes: n=%d peers=%d queue depth=%d; raw per message %.0f ns, raw per estimate %.0f ns", n, peers, depth, msgNs, estNs)
	return l
}

// report writes the ledger into the per-layer metrics and notes the stage
// table. It flags — it does not fail — an op whose stages leave more than a
// tenth of it unexplained.
func (l *ledger) report(r *run, opNs float64, out map[string]float64) {
	if opNs == 0 {
		return
	}
	rows := append(l.rows, ledgerRow{"scenario.build", 1, l.buildNs})
	r.noteStages(rows, opNs)
	share := map[string]float64{}
	accounted := 0.0
	for _, row := range rows {
		s := row.count * row.unitNs / opNs
		share[row.stage] = s
		accounted += s
		switch row.stage {
		case "des":
			out["des.events_per_op"], out["des.event_ns"] = row.count, row.unitNs
		case "network":
			out["network.msgs_per_op"], out["network.msg_ns"] = row.count, row.unitNs
		case "protocol":
			out["protocol.estimates_per_op"], out["protocol.estimate_ns"] = row.count, row.unitNs
		case "core":
			out["core.rounds_per_op"], out["core.converge_ns"] = row.count, row.unitNs
		case "metrics":
			out["metrics.samples_per_op"], out["metrics.sample_ns"] = row.count, row.unitNs
		}
	}
	out["des.share"] = share["des"]
	out["network.share"] = share["network"]
	out["network.bytes_per_op"] = l.bytes
	out["protocol.share"] = share["protocol"] + share["protocol.sampler"]
	out["core.share"] = share["core"]
	out["metrics.share"] = share["metrics"]
	out["scenario.build_us"] = l.buildNs / 1e3
	out["scenario.unaccounted_share"] = 1 - accounted
	if gap := 1 - accounted; gap > unaccountedFlag || gap < -unaccountedFlag {
		r.notef("FLAG: the stages leave %.1f%% of the op unaccounted (more than %.0f%%): the next thing to explain", gap*100, unaccountedFlag*100)
	}
}

// probeEvent is the cost of scheduling and firing one event with depth
// events queued: depth self-rescheduling chains of differing periods, so the
// heap is as deep and as shuffled as the workload keeps it.
func probeEvent(depth, events int) float64 {
	sim := des.New(1)
	rng := rand.New(rand.NewSource(1))
	remaining := events
	for i := 0; i < depth; i++ {
		period := simtime.Duration(0.005 + 0.045*rng.Float64())
		var fn func()
		fn = func() {
			if remaining--; remaining > 0 {
				sim.After(period, fn)
			}
		}
		sim.After(simtime.Duration(rng.Float64())*period, fn)
	}
	t0 := time.Now()
	sim.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(sim.Fired())
}

// simFabric is a bare message layer over an engine, built the way
// scenario.Run builds it for the serial or the sharded path.
type simFabric struct {
	net    *network.Network
	simFor func(node int) *des.Sim
	run    func()
}

func newSimFabric(n int, sharded bool) simFabric {
	topo := network.NewFullMesh(n)
	delay := network.NewUniformDelay(5*simtime.Millisecond, 50*simtime.Millisecond)
	if sharded {
		ps := des.NewSharded(1, 1, sampledLookahead)
		return simFabric{
			net:    network.NewSharded(ps, topo, delay, 1),
			simFor: func(node int) *des.Sim { return ps.Shard(ps.ShardOf(node)) },
			run:    func() { ps.RunUntil(simtime.Time(simtime.Hour)) },
		}
	}
	sim := des.New(1)
	return simFabric{
		net:    network.New(sim, topo, delay),
		simFor: func(int) *des.Sim { return sim },
		run:    sim.Run,
	}
}

// probeNetwork is the cost of one message — Send, the queued event, the
// delivery — with inflight messages in flight: every delivery sends the next
// message until msgs have been sent.
func probeNetwork(n, inflight, msgs int, sharded bool) float64 {
	f := newSimFabric(n, sharded)
	payload := &protocol.TimeReq{}
	remaining := msgs
	for id := 0; id < n; id++ {
		id := id
		f.net.Register(id, func(m network.Message) {
			if remaining--; remaining > 0 {
				f.net.Send(id, m.From, payload)
			}
		})
	}
	if inflight > msgs {
		inflight = msgs
	}
	for i := 0; i < inflight; i++ {
		from := i % n
		f.net.Send(from, (from+1+(i/n)%(n-1))%n, payload)
	}
	t0 := time.Now()
	f.run()
	return float64(time.Since(t0).Nanoseconds()) / float64(f.net.TotalSent())
}

// probeRounds and probePeriod make the estimation probe run the workload's
// own schedule: a simulated minute is six rounds per node, ten seconds apart,
// the nodes' phases spread evenly — so queue depth, pool warm-up and map
// growth are what they are in an op.
const (
	probeRounds = 6
	probePeriod = 10 * simtime.Second
)

// probeEstimate is the cost of one estimate through the protocol harness —
// request, reply, and its share of the round's bookkeeping and timeout —
// with every node estimating `peers` peers per round. Fresh fabrics are run
// until `estimates` estimates have been taken; only the runs are timed.
func probeEstimate(n, peers, estimates int, sharded bool) float64 {
	var elapsed time.Duration
	done := 0
	for done < estimates {
		f := newSimFabric(n, sharded)
		for id := 0; id < n; id++ {
			h := protocol.NewHarness(id, f.simFor(id), f.net, clock.NewLocal(clock.NewDrifting(0, 0, 1)))
			targets := make([]int, peers)
			for j := range targets {
				targets[j] = (id + 1 + j) % n
			}
			left := probeRounds
			var round func()
			round = func() {
				h.EstimateAll(targets, 100*simtime.Millisecond, func(ests []protocol.Estimate) { done += len(ests) })
				if left--; left > 0 {
					h.ScheduleLocal(probePeriod, round)
				}
			}
			f.simFor(id).After(probePeriod*simtime.Duration(id)/simtime.Duration(n), round)
		}
		t0 := time.Now()
		f.run()
		elapsed += time.Since(t0)
	}
	return float64(elapsed.Nanoseconds()) / float64(done)
}

var convergeSink simtime.Duration

// probeConverge is the cost of one convergence-function call on a vector of
// the workload's length.
func probeConverge(vector, f, calls int) float64 {
	rng := rand.New(rand.NewSource(1))
	ests := make([]protocol.Estimate, vector)
	for i := range ests {
		ests[i] = protocol.Estimate{
			Peer: i,
			D:    simtime.Duration(rng.NormFloat64() * 0.01),
			A:    simtime.Duration(rng.Float64() * 0.05),
			OK:   true,
		}
	}
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		convergeSink, _ = core.Converge(f, 5, ests)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// probeSample is the cost of one metrics sample over n clocks.
func probeSample(n int, theta simtime.Duration, samples int) float64 {
	sim := des.New(1)
	clocks := make([]*clock.Local, n)
	for i := range clocks {
		clocks[i] = clock.NewLocal(clock.NewDrifting(0, simtime.Time(i)*1e-3, 1+1e-5*float64(i%7)))
	}
	rec := metrics.NewRecorder(sim, clocks, adversary.Schedule{}, theta)
	t0 := time.Now()
	for i := 0; i < samples; i++ {
		rec.TakeSample(simtime.Time(i))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(samples)
}

// probeBuild is the cost of building and tearing down a scenario that runs
// for no simulated time at all: clocks, harnesses, nodes, recorder, report.
func probeBuild(s scenario.Scenario) float64 {
	s.Duration = simtime.Nanosecond
	t0 := time.Now()
	if _, err := scenario.Run(s); err != nil {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds())
}

var samplerSink []int

// probeSampler is the cost of drawing one round's k-of-n peer subset.
func probeSampler(n, k, draws int) float64 {
	peers := make([]int, n-1)
	for i := range peers {
		peers[i] = i + 1
	}
	ps := protocol.NewPeerSampler(peers, k, 1, 0)
	t0 := time.Now()
	for i := 0; i < draws; i++ {
		samplerSink = ps.Sample()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(draws)
}
