package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"clocksync/internal/livenet"
	"clocksync/internal/obs"
)

const (
	liveNodes   = 7
	liveSyncInt = 20 * time.Millisecond
	// liveBatch is the wall time of one batch, five ticks of every node; this
	// workload is paced, so its batches are equal in time, not in ops.
	liveBatch = 100 * time.Millisecond
	// liveSlack is the share of the whole timed phase's rounds that may be
	// missing before the missing ones count as failed; on top of it each node
	// may be one round short, its next tick falling just after the look. A
	// tenth, not the fiftieth tick phase alone would need: when the host takes
	// the CPU away for a quarter of a second every node's ticker drops its
	// ticks at once, and on this box that cost up to 3.4 % of a run's rounds.
	// Code that overruns its 20 ms or loses rounds misses far more than a
	// tenth. The allowance is a share of the phase, not of the time elapsed so
	// far: a share of the elapsed time is next to nothing in the first second,
	// where one 60 ms stall then read as three failed rounds in a run that
	// went on to complete 99.5 % of its schedule.
	liveSlack = 0.10
	// liveSpreadLimit is how far apart the nodes' clocks may be at the end.
	liveSpreadLimit = 5 * time.Millisecond
)

// liveRound runs a real 7-node cluster over loopback UDP, one Sync round per
// node every 20 ms, and counts completed rounds. The rate is pinned at
// n/SyncInt = 350 rounds a second unless rounds overrun or fail, so ops_per_s
// is a health gate; the cluster idles nine tenths of the time, and what the
// code can move is the CPU and the allocation each round costs. It is the
// only workload that executes livenet.runSync.
type liveRound struct {
	r          *run
	warmRounds int
	batchTime  time.Duration
	allowed    int // rounds that may be missing from the timed phase

	cluster  *livenet.Cluster
	observer *obs.Observer // traced runs only
	ring     *obs.SpanRing // attached to it for the traced half

	// Books of the timed phase: when it began and with which counter values,
	// rounds completed at the last look, rounds already counted as missing.
	began   time.Time
	syncs0  int
	sent0   int64
	retry0  int64
	syncs   int
	missing int
}

func newLiveRound(r *run) *liveRound {
	phaseRounds := float64(liveNodes) * r.seconds / liveSyncInt.Seconds()
	return &liveRound{r: r, warmRounds: r.sized(700), batchTime: liveBatch,
		allowed: int(liveSlack*phaseRounds) + liveNodes}
}

func (w *liveRound) setup() error {
	// Start the clocks scattered over ±50 ms and drifting by up to ±50 ppm,
	// so rounds have real offsets to pull together.
	rng := rand.New(rand.NewSource(w.r.seed))
	offsets := make([]time.Duration, liveNodes)
	drift := make([]float64, liveNodes)
	for i := range offsets {
		offsets[i] = time.Duration((rng.Float64()*2 - 1) * float64(50*time.Millisecond))
		drift[i] = (rng.Float64()*2 - 1) * 50
	}
	// An untraced run has no observer at all, as a deployment without
	// telemetry has none. A traced run starts with an observer and no sink,
	// and attaches the span ring half way through.
	w.observer, w.ring = nil, nil
	if w.r.traced {
		w.observer = obs.NewObserver()
	}
	c, err := livenet.NewCluster(livenet.ClusterConfig{
		N: liveNodes, F: 2,
		SyncInt: liveSyncInt, MaxWait: liveSyncInt / 2, WayOff: 5 * time.Second,
		Key:     []byte("benchmark"),
		Offsets: offsets, DriftPPM: drift,
		Observer: w.observer,
	})
	if err != nil {
		return err
	}
	w.cluster = c
	c.Start()
	deadline := time.Now().Add(30 * time.Second)
	for w.totalSyncs() < w.warmRounds {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d warm-up rounds completed in 30 s", w.totalSyncs(), w.warmRounds)
		}
		time.Sleep(liveSyncInt / 4)
	}
	w.began = time.Now()
	w.syncs0 = w.totalSyncs()
	w.sent0, w.retry0 = w.counters()
	w.syncs, w.missing = w.syncs0, 0
	return nil
}

func (w *liveRound) totalSyncs() int {
	total := 0
	for _, n := range w.cluster.Nodes() {
		total += n.Syncs()
	}
	return total
}

func (w *liveRound) counters() (sent, retries int64) {
	for _, n := range w.cluster.Nodes() {
		m := n.Metrics()
		sent += m.MessagesSent.Load()
		retries += m.Retries.Load()
	}
	return
}

func (w *liveRound) batch() (attempted, failed int) {
	if w.r.tracing && w.ring == nil {
		// 14 spans a round (round, adjust, 6 estimates, 6 replies) at 350
		// rounds a second for half the timed phase, with room to spare.
		w.ring = obs.NewSpanRing(1 << 17)
		w.observer.AddSpanSink(w.ring)
	}
	time.Sleep(w.batchTime)
	now := w.totalSyncs()
	done := now - w.syncs
	w.syncs = now
	// Rounds are due since the phase began, not since this batch did: a round
	// that lands just over a batch boundary is late for nobody.
	due := float64(liveNodes) * float64(time.Since(w.began)) / float64(liveSyncInt)
	if short := int(due) - w.allowed - (now - w.syncs0) - w.missing; short > 0 {
		failed = short
		w.missing += short
		w.r.notef("batch short by %d: due %.0f done %d", short, due, now-w.syncs0)
	}
	return done + failed, failed
}

// verify checks what the rounds were for: the clocks that started up to
// 100 ms apart must end within a few milliseconds of each other.
func (w *liveRound) verify() error {
	if spread := w.cluster.Spread(); spread > liveSpreadLimit {
		return fmt.Errorf("cluster spread %v after the run, limit %v", spread, liveSpreadLimit)
	}
	return nil
}

func (w *liveRound) teardown() {
	if w.cluster != nil {
		w.cluster.Stop()
		w.cluster = nil
	}
}

func (w *liveRound) ledger(o *outcome) {
	r, out := w.r, o.layers
	rounds := float64(w.syncs - w.syncs0)
	if rounds > 0 {
		sent, retries := w.counters()
		out["livenet.msgs_per_round"] = float64(sent-w.sent0) / rounds
		out["livenet.retries_per_round"] = float64(retries-w.retry0) / rounds
	}
	var roundUs, rttUs []float64
	if w.ring != nil {
		for _, sp := range w.ring.Spans() {
			switch sp.Name {
			case obs.SpanRound:
				roundUs = append(roundUs, sp.Dur()*1e6)
			case obs.SpanEstimate:
				if rtt, ok := sp.Fields.Lookup("rtt"); ok {
					rttUs = append(rttUs, rtt*1e6)
				}
			}
		}
	}
	sort.Float64s(roundUs)
	sort.Float64s(rttUs)
	out["livenet.round_p50_us"] = quantile(roundUs, 0.5)
	p99, used := tailPercentile(roundUs, 0.99)
	out["livenet.round_p99_us"] = p99
	out["livenet.estimate_rtt_p50_us"] = quantile(rttUs, 0.5)
	r.notef("round wall time from %d round spans, estimate rtt from %d estimate spans; livenet.round_p99_us is percentile %.4f",
		len(roundUs), len(rttUs), used*100)

	out["core.rounds_per_op"] = 1
	r.timeLayer("core", func() {
		out["core.converge_ns"] = r.repeated(func() float64 { return probeConverge(liveNodes, 2, r.sized(probeConverges)) })
	})
	_, cpuUs := o.rates(false)
	if cpu := lowCost(cpuUs); cpu > 0 {
		out["core.share"] = out["core.converge_ns"] / 1e3 / cpu
	}
}
