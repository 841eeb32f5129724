package campaign

import (
	"math"

	"clocksync/internal/adversary"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// Scenario deterministically expands one seed into a fully-specified run:
// delay model, drop rate, initial spread and corruption schedule are all
// drawn from a stream keyed on the seed alone (network.ScenarioTag), so a
// failing seed can be replayed (and its schedule shrunk) bit-for-bit.
//
// The draw order is fixed — delay, drop, spread, then schedule — so the
// shrinker can override only the schedule of a replayed scenario while
// keeping every other draw identical.
//
// When Families is set, the seed's family is picked first (from a separate
// seed-keyed stream; see pickFamily) and a non-generic pick dispatches to
// that family's generator; the generic path below is byte-for-byte the
// pre-family generator.
func (c Config) Scenario(seed int64) scenario.Scenario {
	s, _ := c.generate(seed)
	return s
}

// generate is Scenario that also returns the family it picked for the seed,
// so a campaign reports each run under its family without drawing it again.
func (c Config) generate(seed int64) (scenario.Scenario, FamilyWeight) {
	c = c.withDefaults()
	rng := &network.SplitMix64{State: network.Key(seed, network.ScenarioTag)}
	fw := c.pickFamily(seed)
	if fw.Family != FamilyGeneric {
		return c.familyScenario(fw, seed, rng), fw
	}
	s := scenario.Scenario{
		Name:     "campaign",
		Seed:     seed,
		N:        c.N,
		F:        c.F,
		Duration: c.Duration,
		Theta:    c.Theta,
		Rho:      c.Rho,
		SyncInt:  c.SyncInt,
		Delay:    c.randomDelay(rng),
		// Pin the estimation timeout to the campaign-level 2δ rather than the
		// drawn model's own bound: a ConstantDelay model has Bound() equal to
		// its every sample, so MaxWait = 2·Bound() would make each round trip
		// tie its own timeout exactly — and the simulator breaks same-instant
		// ties toward the earlier-scheduled timeout, starving every
		// estimation round.
		MaxWait:     2 * c.Delta,
		DropProb:    c.DropProb * rng.Float64(),
		InitSpread:  simtime.Duration(rng.Float64() * float64(c.InitSpread)),
		SamplePeers: c.SamplePeers,
		Check:       true,
	}
	s.Adversary = c.schedule(rng)
	if c.Mutate != nil {
		s.Builder = scenario.SyncBuilder(c.Mutate)
	}
	return s, fw
}

// randomDelay draws one of three delay shapes, each with Bound() ≤ δ so the
// derived ε (and with it every checked bound) stays honest.
func (c Config) randomDelay(rng *network.SplitMix64) network.DelayModel {
	d := float64(c.Delta)
	switch rng.Intn(3) {
	case 0: // uniform [lo, δ]
		lo := simtime.Duration(d * (0.05 + 0.45*rng.Float64()))
		return network.NewUniformDelay(lo, c.Delta)
	case 1: // constant, strictly below δ
		return network.ConstantDelay{D: simtime.Duration(d * (0.2 + 0.7*rng.Float64()))}
	default: // mostly-fast with rare spikes; spikes add to base, so Bound = δ/2 + δ/2 = δ
		return network.SpikyDelay{
			Base:      network.NewUniformDelay(simtime.Duration(d/20), simtime.Duration(d/2)),
			SpikeProb: 0.02 + 0.08*rng.Float64(),
			SpikeMax:  simtime.Duration(d / 2),
		}
	}
}

// schedule draws an f-limited mobile corruption schedule that is valid by
// construction: corruption k starts more than (Θ+maxDwell)/f after
// corruption k−1, so at most f extended intervals [From−Θ, To] — and hence
// at most f distinct controlled processors — overlap any Θ-window
// (Definition 2). A final Validate pass is kept as a belt-and-suspenders
// guard: on the (never observed) chance the construction slips, trailing
// corruptions are dropped until the schedule passes.
func (c Config) schedule(rng *network.SplitMix64) adversary.Schedule {
	var s adversary.Schedule
	want := rng.Intn(c.MaxCorruptions + 1)
	if want == 0 {
		return s
	}

	minDwell := c.SyncInt
	maxDwell := simtime.Duration(float64(c.Theta) / float64(2*c.F))
	if maxDwell < 2*c.SyncInt {
		maxDwell = 2 * c.SyncInt
	}
	// Leave Θ of quiet tail so the last release's recovery (≤ KT ≤ Θ) is
	// observable before the run ends.
	start := simtime.Time(2 * c.Theta)
	latest := simtime.Time(c.Duration - c.Theta - maxDwell)
	minStep := simtime.Duration(float64(c.Theta+maxDwell)/float64(c.F)) + simtime.Millisecond

	at := start.Add(simtime.Duration(rng.Float64() * float64(minStep)))
	for i := 0; i < want && at <= latest; i++ {
		dwell := minDwell + simtime.Duration(rng.Float64()*float64(maxDwell-minDwell))
		s.Corruptions = append(s.Corruptions, adversary.Corruption{
			Node:     rng.Intn(c.N),
			From:     at,
			To:       at.Add(dwell),
			Behavior: c.randomBehavior(rng),
		})
		at = at.Add(simtime.Duration(float64(minStep) * (1 + 0.5*rng.Float64())))
	}
	for len(s.Corruptions) > 0 {
		if err := s.Validate(c.N, c.F, c.Theta); err == nil {
			break
		}
		s.Corruptions = s.Corruptions[:len(s.Corruptions)-1]
	}
	return s
}

// randomBehavior draws from the full fault palette, with log-uniform
// magnitudes: small offsets probe the ε-scale envelope, huge ones exercise
// the WayOff recovery path.
func (c Config) randomBehavior(rng *network.SplitMix64) protocol.Behavior {
	sign := randomSign(rng)
	switch rng.Intn(6) {
	case 0:
		return adversary.Crash{}
	case 1:
		return adversary.ClockSmash{
			Offset: sign * logUniform(rng, 10*simtime.Millisecond, 60*simtime.Second),
			Quiet:  rng.Intn(2) == 0,
		}
	case 2:
		return adversary.RandomLiar{Amplitude: logUniform(rng, 10*simtime.Millisecond, 10*simtime.Second)}
	case 3:
		return adversary.ConsistentLiar{Offset: sign * logUniform(rng, 10*simtime.Millisecond, 10*simtime.Second)}
	case 4:
		return adversary.SplitBrain{
			Boundary: 1 + rng.Intn(c.N-1),
			Offset:   sign * logUniform(rng, 10*simtime.Millisecond, 10*simtime.Second),
		}
	default:
		return &adversary.EdgePusher{
			Push: sign * logUniform(rng, 10*simtime.Millisecond, simtime.Second),
			Rate: rng.Float64() * 1e-3,
		}
	}
}

// randomSign draws −1 or +1 with equal odds.
func randomSign(rng *network.SplitMix64) simtime.Duration {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(rng *network.SplitMix64, lo, hi simtime.Duration) simtime.Duration {
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	return simtime.Duration(math.Exp(l + rng.Float64()*(h-l)))
}
