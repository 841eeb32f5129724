// Sharded execution: a conservative-lookahead parallel discrete-event
// simulator built from per-shard Sim queues plus one global barrier queue.
//
// The model is classic conservative PDES: entities (processors) are
// partitioned across shards; each shard owns a serial Sim whose events touch
// only that shard's entities. Cross-shard interactions (message deliveries)
// carry a minimum latency L — the lookahead — so an event executing at time
// t can only affect another shard at or after t+L. That makes the half-open
// window [tmin, W) with W = tmin + L safe to execute in parallel: no event
// inside the window can receive a cross-shard effect that lands inside the
// same window. Cross-shard deliveries are buffered by the message layer and
// merged into the destination shards at the window barrier (OnBarrier).
//
// Cross-cutting events — metrics sampling, adversary corruptions — live on a
// separate global queue executed serially between windows, with every shard
// quiesced and advanced to the global event's instant, so a global event
// observes a consistent snapshot of all shards. At equal times the global
// event runs first (windows are strictly below the next global instant).
//
// Observable results are shard-count independent: the window sequence is a
// function of the pending-event times alone (which do not depend on the
// partition), every event fires at the same virtual instant regardless of
// which shard hosts it, and same-instant events in different shards touch
// disjoint state. The one caveat is exact virtual-time ties between events
// in *the same* shard that a different partition would order differently;
// under continuous delay and drift distributions such ties have measure
// zero, and TestShardCountIndependence (internal/scenario) pins equality of
// full run reports across shard counts, and of the run itself with the
// serial engine's. No queue holds a random source: every draw is keyed by the
// run's seed and by what it is about (network.Key), not by the partition.
package des

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"clocksync/internal/simtime"
)

// ShardedSim is a parallel discrete-event simulator: per-shard event queues
// executed in windows of length lookahead on a worker pool, plus a global
// queue for cross-cutting events. Entity i belongs to shard ShardOf(i); all
// of entity i's events must be scheduled on Shard(ShardOf(i)).
type ShardedSim struct {
	shards    []*Sim
	global    *Sim
	lookahead simtime.Duration
	hooks     []func(w simtime.Time)

	winNext atomic.Int32 // next shard index to claim in the current window
}

// NewSharded returns a sharded simulator with the given number of shards and
// conservative lookahead (the minimum cross-shard latency). A non-positive
// lookahead leaves no safe parallel window, so the shard count collapses to
// one — the degenerate serial fallback for zero-delay links; shard counts
// below one are clamped to one.
func NewSharded(seed int64, shards int, lookahead simtime.Duration) *ShardedSim {
	if shards < 1 || lookahead <= 0 {
		shards = 1
	}
	p := &ShardedSim{
		shards:    make([]*Sim, shards),
		lookahead: lookahead,
	}
	for i := range p.shards {
		p.shards[i] = New(seed)
	}
	p.global = New(seed)
	return p
}

// Reset rewinds every shard and the global queue to time zero for the run
// with the given seed, keeping all event arenas warm and what each shard owns
// (Owned) — the ShardedSim analogue of Sim.Reset: a message layer built on
// the reset simulator takes over each shard's envelopes, outbox storage and
// lists, until the simulator is dropped. Barrier hooks are cleared: they
// belong to the run's message layer, whose per-run state is rebuilt.
func (p *ShardedSim) Reset(seed int64) {
	for _, sh := range p.shards {
		sh.Reset(seed)
	}
	p.global.Reset(seed)
	p.hooks = p.hooks[:0]
}

// Shards returns the shard count.
func (p *ShardedSim) Shards() int { return len(p.shards) }

// Lookahead returns the conservative window length.
func (p *ShardedSim) Lookahead() simtime.Duration { return p.lookahead }

// Shard returns shard i's serial simulator.
func (p *ShardedSim) Shard(i int) *Sim { return p.shards[i] }

// ShardOf maps entity id to its shard. Entities are striped round-robin so
// phase-staggered workloads spread evenly.
func (p *ShardedSim) ShardOf(entity int) int { return entity % len(p.shards) }

// Global returns the serial barrier queue for cross-cutting events (metrics
// ticks, adversary corruptions). Global events run with every shard
// quiesced and advanced to the event's instant; they may schedule onto any
// shard, but shard events must never schedule onto the global queue — that
// would race with other shards doing the same.
func (p *ShardedSim) Global() *Sim { return p.global }

// Now returns the global queue's current time (the barrier clock).
func (p *ShardedSim) Now() simtime.Time { return p.global.Now() }

// Fired returns the total number of events executed across all shards and
// the global queue.
func (p *ShardedSim) Fired() uint64 {
	total := p.global.Fired()
	for _, sh := range p.shards {
		total += sh.Fired()
	}
	return total
}

// OnBarrier registers fn to run (serially, on the coordinating goroutine)
// after every window, with the window's exclusive upper bound. The sharded
// message layer uses it to merge buffered cross-shard deliveries into the
// destination shards while they are quiesced. Hooks are cleared by Reset.
func (p *ShardedSim) OnBarrier(fn func(w simtime.Time)) {
	p.hooks = append(p.hooks, fn)
}

// RunUntil executes events until virtual time reaches horizon (inclusive of
// events at exactly horizon) on all queues. Afterwards every queue's clock
// reads horizon. Windows execute on the calling goroutine plus up to
// Shards()−1 helpers acquired non-blockingly from the process-wide worker
// pool (AcquireWorkers); with no helpers available the shards run inline,
// serially — same results, one goroutine.
//
// A panic inside an event surfaces on the calling goroutine whichever
// goroutine ran the event: the window is collected, its barrier hooks are
// skipped, the helpers exit, the worker tokens go back to the pool, and the
// panic value of the lowest-numbered panicking shard is re-raised. The queues
// are then mid-window; Reset the simulator before using it again.
func (p *ShardedSim) RunUntil(horizon simtime.Time) {
	// end is the exclusive window cap that makes horizon inclusive under the
	// strictly-before window semantics.
	end := simtime.Time(math.Nextafter(float64(horizon), math.Inf(1)))

	helpers := 0
	var startCh chan simtime.Time
	var doneCh chan *shardPanic
	if len(p.shards) > 1 {
		helpers = AcquireWorkers(len(p.shards) - 1)
	}
	if helpers > 0 {
		var stop func()
		startCh, doneCh, stop = p.startHelpers(helpers)
		defer stop()
	}

	infTime := simtime.Time(math.Inf(1))
	for {
		tg, gok := p.global.peek()
		if !gok {
			tg = infTime
		}
		tmin := infTime
		for _, sh := range p.shards {
			if t, ok := sh.peek(); ok && t < tmin {
				tmin = t
			}
		}
		if tmin > horizon && tg > horizon {
			break
		}
		if tg <= tmin && tg <= horizon {
			// Global events up to the next shard event run serially, with
			// every shard's clock advanced to each event's instant so the
			// event observes (and schedules into) a consistent present.
			limit := tmin
			if horizon < limit {
				limit = horizon
			}
			for {
				t, ok := p.global.peek()
				if !ok || t > limit {
					break
				}
				for _, sh := range p.shards {
					sh.advanceTo(t)
				}
				p.global.Step()
			}
			continue
		}
		w := tmin.Add(p.lookahead)
		if len(p.shards) == 1 {
			// A single shard has no cross-shard hazards: run straight to the
			// next global event (or the horizon).
			w = infTime
		}
		if tg < w {
			w = tg
		}
		if end < w {
			w = end
		}
		if w <= tmin {
			// Cannot happen: w ≥ tmin+lookahead > tmin (multi-shard), and the
			// caps tg and end both exceed tmin here. Guard against a silent
			// infinite loop all the same.
			panic(fmt.Sprintf("des: empty shard window [%v, %v)", tmin, w))
		}
		if helpers > 0 {
			p.winNext.Store(0)
			for i := 0; i < helpers; i++ {
				startCh <- w
			}
			first := p.claimShards(w)
			for i := 0; i < helpers; i++ {
				if sp := <-doneCh; sp != nil && (first == nil || sp.shard < first.shard) {
					first = sp
				}
			}
			if first != nil {
				panic(first.val)
			}
		} else {
			for _, sh := range p.shards {
				sh.runBefore(w)
			}
		}
		for _, fn := range p.hooks {
			fn(w)
		}
	}

	for _, sh := range p.shards {
		sh.advanceTo(horizon)
	}
	p.global.advanceTo(horizon)
}

// startHelpers starts helpers goroutines that each run claimShards for every
// window bound sent on start and report on done. stop ends them and returns
// their worker tokens. It is its own function so that a run whose shards go
// inline allocates no channels.
func (p *ShardedSim) startHelpers(helpers int) (start chan simtime.Time, done chan *shardPanic, stop func()) {
	start = make(chan simtime.Time)
	// One slot per helper: a helper's send never blocks, so a helper cannot
	// outlive a coordinator that stopped receiving.
	done = make(chan *shardPanic, helpers)
	var exited sync.WaitGroup
	exited.Add(helpers)
	for i := 0; i < helpers; i++ {
		go func() {
			defer exited.Done()
			for w := range start {
				done <- p.claimShards(w)
			}
		}()
	}
	return start, done, func() {
		close(start)
		exited.Wait()
		ReleaseWorkers(helpers)
	}
}

// shardPanic is a panic recovered from one shard's events, held until the
// window's coordinator can re-raise it on the RunUntil caller.
type shardPanic struct {
	shard int
	val   any
}

// claimShards pulls shard indices off the shared window counter and runs
// each claimed shard's events strictly before w. Both the coordinator and
// every helper run this loop, so shards load-balance across whatever
// goroutines the window got. A panicking event ends the loop: the panic comes
// back as the result instead of unwinding a helper goroutine, where it would
// kill the process. Indices are claimed in increasing order and a goroutine
// stops only at a panicking shard, so the lowest-numbered panicking shard is
// always reached, whatever the interleaving.
func (p *ShardedSim) claimShards(w simtime.Time) (sp *shardPanic) {
	i := 0
	defer func() {
		if r := recover(); r != nil {
			sp = &shardPanic{shard: i, val: r}
		}
	}()
	for {
		i = int(p.winNext.Add(1)) - 1
		if i >= len(p.shards) {
			return nil
		}
		p.shards[i].runBefore(w)
	}
}

// runBefore fires events strictly before w — the shard half of a
// conservative window. Events at exactly w (the next window's floor, or a
// global event's instant) stay queued.
func (s *Sim) runBefore(w simtime.Time) {
	for {
		t, ok := s.peek()
		if !ok || t >= w {
			return
		}
		s.Step()
	}
}

// advanceTo moves the clock forward to t without firing events; no-op when
// the clock already reads t or later. ShardedSim uses it to present a
// consistent now to global events and to land every queue on the horizon.
func (s *Sim) advanceTo(t simtime.Time) {
	if t > s.now {
		s.now = t
	}
}
