package baseline

import (
	"math"
	"sort"

	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// NTPConfig parameterizes the NTP-flavored client.
type NTPConfig struct {
	Poll    simtime.Duration // polling interval
	MaxWait simtime.Duration // per-ping timeout
	K       int              // pings per peer, best (min-RTT) kept
	// SlewMax bounds the gradual correction applied per poll.
	SlewMax simtime.Duration
	// StepThreshold is ntpd's panic/step boundary: offsets beyond it are
	// stepped in one jump instead of slewed.
	StepThreshold simtime.Duration
	FirstPoll     simtime.Duration
}

// NTPSlew approximates how an NTP client disciplines its clock against a
// peer ensemble: min-RTT-of-k filtering per peer (§3.1 credits NTP for the
// trick), the median across peers as the combined offset, then a
// rate-limited slew — or a step when the offset exceeds StepThreshold. It
// has no Byzantine trimming tuned to f; the median resists outliers only as
// long as liars stay a minority and tell everyone the same story.
type NTPSlew struct {
	h     *protocol.Harness
	cfg   NTPConfig
	peers []int

	Polls int
	Steps int
}

// NewNTPSlew builds a node.
func NewNTPSlew(h *protocol.Harness, cfg NTPConfig, peers []int) *NTPSlew {
	if cfg.K < 1 || cfg.Poll <= 0 || cfg.MaxWait <= 0 {
		panic("baseline: NTPSlew needs K ≥ 1 and positive intervals")
	}
	return &NTPSlew{h: h, cfg: cfg, peers: append([]int(nil), peers...)}
}

// Start implements scenario.Starter.
func (n *NTPSlew) Start() {
	n.h.ScheduleLocal(n.cfg.FirstPoll, n.tick)
}

func (n *NTPSlew) tick() {
	n.h.ScheduleLocal(n.cfg.Poll, n.tick)
	if n.h.Faulty() || len(n.peers) == 0 {
		return
	}
	results := make([]protocol.Estimate, 0, len(n.peers))
	want := len(n.peers)
	for _, peer := range n.peers {
		n.h.PingBest(peer, n.cfg.K, n.cfg.MaxWait, func(e protocol.Estimate) {
			results = append(results, e)
			if len(results) == want {
				n.finish(results)
			}
		})
	}
}

func (n *NTPSlew) finish(results []protocol.Estimate) {
	if n.h.Faulty() {
		return
	}
	var offsets []float64
	for _, e := range results {
		if e.OK {
			offsets = append(offsets, float64(e.D))
		}
	}
	if len(offsets) == 0 {
		return
	}
	sort.Float64s(offsets)
	median := offsets[len(offsets)/2]
	if len(offsets)%2 == 0 {
		median = (offsets[len(offsets)/2-1] + offsets[len(offsets)/2]) / 2
	}
	n.Polls++
	if math.Abs(median) > float64(n.cfg.StepThreshold) {
		n.Steps++
		n.h.Adjust(simtime.Duration(median))
		return
	}
	slew := median / 2
	if s := float64(n.cfg.SlewMax); math.Abs(slew) > s {
		slew = math.Copysign(s, slew)
	}
	n.h.Adjust(simtime.Duration(slew))
}

// NTPSlewBuilder adapts the node to the scenario engine.
func NTPSlewBuilder(k int) scenario.Builder {
	return func(ctx scenario.BuildContext) scenario.Starter {
		return NewNTPSlew(ctx.Harness, NTPConfig{
			Poll:          ctx.Scenario.SyncInt,
			MaxWait:       ctx.Scenario.MaxWait,
			K:             k,
			SlewMax:       ctx.Bounds.Eps,
			StepThreshold: 128 * simtime.Millisecond,
			FirstPoll:     simtime.Duration(ctx.Rand.Float64() * float64(ctx.Scenario.SyncInt)),
		}, ctx.Peers())
	}
}
