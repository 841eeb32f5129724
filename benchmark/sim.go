package main

import (
	"fmt"
	"time"

	"clocksync/internal/core"
	"clocksync/internal/des"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// warmSeedOffset keeps warm-up ops off the seeds the timed ops use (op i
// runs seed+i), so the timed phase never re-runs an input it has just seen.
const warmSeedOffset = 1 << 40

// simWorkload is a workload whose op is one scenario.Run of a simulated
// minute; sim_mesh_n64 and sim_sampled_n1024 differ only in the scenario and
// the engine it is handed.
type simWorkload struct {
	r        *run
	warmOps  int
	batchOps int
	peers    int // estimates each node takes per round
	// engine builds the reusable simulator and returns the scenario template
	// that runs on it, plus a reader for the events it has fired.
	engine func() (scenario.Scenario, func() uint64)

	base  scenario.Scenario
	fired func() uint64
	next  int64 // index of the next timed op
	op0   simCounts
}

// simCounts is the work one op did, read off its Result.
type simCounts struct {
	events, msgs, bytes, rounds, samples float64
}

func minuteScenario(name string, n, f int) scenario.Scenario {
	return scenario.Scenario{
		Name:     name,
		N:        n,
		F:        f,
		Duration: simtime.Minute,
		Theta:    2 * simtime.Minute,
		Rho:      1e-4,
		SyncInt:  10 * simtime.Second,
	}
}

// newSimMesh is the ClusterMinute/n64 body: full mesh, serial engine, one
// simulator reused across ops the way campaign workers reuse theirs.
func newSimMesh(r *run) *simWorkload {
	return &simWorkload{
		r: r, warmOps: r.sized(150), batchOps: r.sized(4), peers: 63,
		engine: func() (scenario.Scenario, func() uint64) {
			sim := des.New(0)
			s := minuteScenario("bench-mesh", 64, 21)
			s.ReuseSim = sim
			return s, sim.Fired
		},
	}
}

// sampledLookahead is the default delay model's 5 ms minimum link delay.
const sampledLookahead = 5 * simtime.Millisecond

func sampledScenario(ps *des.ShardedSim) scenario.Scenario {
	s := minuteScenario("bench-sampled", 1024, 10)
	s.SamplePeers = 31
	s.ReuseSharded = ps
	return s
}

// newSimSampled is the ClusterMinute/n1024 body at one shard. One shard on
// purpose: on a 2-core box more shards measure the host scheduler (12 000
// channel hand-offs per op), not the simulator; the parallel path is reported
// as the per-layer ratio des.shard2_slowdown instead.
func newSimSampled(r *run) *simWorkload {
	return &simWorkload{
		r: r, warmOps: r.sized(9), batchOps: 1, peers: 31,
		engine: func() (scenario.Scenario, func() uint64) {
			ps := des.NewSharded(0, 1, sampledLookahead)
			return sampledScenario(ps), ps.Fired
		},
	}
}

func (w *simWorkload) setup() error {
	w.base, w.fired = w.engine()
	w.next = 0
	for i := 0; i < w.warmOps; i++ {
		if _, err := w.runOp(w.r.seed + warmSeedOffset + int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// runOp runs one simulated minute and applies the per-op output check: no
// error, and the measured deviation inside the run's own Theorem 5 bound.
func (w *simWorkload) runOp(seed int64) (simCounts, error) {
	s := w.base
	s.Seed = seed
	res, err := scenario.Run(s)
	if err != nil {
		return simCounts{}, err
	}
	if res.Report.MaxDeviation > res.Bounds.MaxDeviation {
		return simCounts{}, fmt.Errorf("seed %d: deviation %v exceeds bound %v", seed, res.Report.MaxDeviation, res.Bounds.MaxDeviation)
	}
	return countsOf(res, w.fired()), nil
}

func countsOf(res *scenario.Result, fired uint64) simCounts {
	c := simCounts{
		events:  float64(fired),
		msgs:    float64(res.MsgsSent),
		bytes:   float64(res.BytesSent),
		samples: float64(len(res.Recorder.Samples())),
	}
	for _, st := range res.SyncStats {
		if st != nil {
			c.rounds += float64(st.Syncs + st.Skipped)
		}
	}
	return c
}

func (w *simWorkload) batch() (attempted, failed int) {
	for i := 0; i < w.batchOps; i++ {
		t0 := time.Now()
		c, err := w.runOp(w.r.seed + w.next)
		if err != nil {
			failed++
			w.r.notef("op %d failed: %v", w.next, err)
		} else if w.next == 0 {
			w.op0 = c
		}
		if w.r.tracing {
			w.r.tr.add(w.r.name+"/op", t0, time.Now())
		}
		w.next++
	}
	return w.batchOps, failed
}

// verify re-runs op 0 on the by now well-used simulator: a reused engine must
// replay a seed exactly, message for message and event for event.
func (w *simWorkload) verify() error {
	again, err := w.runOp(w.r.seed)
	if err != nil {
		return err
	}
	if again.msgs != w.op0.msgs || again.events != w.op0.events {
		return fmt.Errorf("op 0 did not replay: %v msgs / %v events, first time %v / %v",
			again.msgs, again.events, w.op0.msgs, w.op0.events)
	}
	return nil
}

func (w *simWorkload) teardown() { w.base, w.fired = scenario.Scenario{}, nil }

func (w *simWorkload) ledger(o *outcome) {
	opNs, out := o.opNs, o.layers
	sharded := w.base.ReuseSharded != nil
	l := simLedger(w.r, w.base, w.op0, w.peers, sharded)
	if sharded {
		w.shardProbe(opNs, out)
		rounds := w.op0.rounds
		w.r.timeLayer("protocol.sampler", func() {
			out["protocol.sample_peers_ns"] = w.r.repeated(func() float64 {
				return probeSampler(w.base.N, w.base.SamplePeers, w.r.sized(1<<15))
			})
		})
		l.rows = append(l.rows, ledgerRow{"protocol.sampler", rounds, out["protocol.sample_peers_ns"]})
	}
	l.report(w.r, opNs, out)
}

// shardProbe runs the same ops through two shards and reports how much
// slower that is, and how many lookahead windows an op is cut into.
func (w *simWorkload) shardProbe(opNs float64, out map[string]float64) {
	var windows int
	ps := des.NewSharded(0, 2, sampledLookahead)
	s := sampledScenario(ps)
	// Run rebuilds the message layer (and clears barrier hooks) on every op;
	// the builder hook is the one place outside code runs after that reset
	// and before the first window.
	s.Builder = scenario.SyncBuilder(func(_ *core.Config, ctx scenario.BuildContext) {
		if ctx.Index == 0 {
			ps.OnBarrier(func(simtime.Time) { windows++ })
		}
	})
	ops := w.r.sized(3)
	var times []float64
	w.r.timeLayer("des.shard2", func() {
		for i := 0; i < ops; i++ {
			s.Seed = w.r.seed + int64(i)
			t0 := time.Now()
			if _, err := scenario.Run(s); err != nil {
				w.r.notef("two-shard probe failed: %v", err)
				return
			}
			times = append(times, float64(time.Since(t0).Nanoseconds()))
		}
	})
	if len(times) == 0 || opNs == 0 {
		return
	}
	out["des.shard2_slowdown"] = median(times) / opNs
	out["des.windows_per_op"] = float64(windows) / float64(len(times))
}
