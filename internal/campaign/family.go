package campaign

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"clocksync/internal/adversary"
	"clocksync/internal/core"
	"clocksync/internal/network"
	"clocksync/internal/protocol"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// Family names one adversary scenario family: a themed generator that
// expands a seed into a scenario probing one specific stress axis, in
// contrast to the generic generator's uniform draw over the whole fault
// palette. Families are how a campaign is aimed: `-family flash` spends
// every run on flash-recovery crowds instead of finding one by chance.
type Family string

// The named families. Each is grounded in the paper or the related work the
// ROADMAP cites (see the per-generator comments below).
const (
	// FamilyGeneric is the original campaign generator: random delay model,
	// drop rate, spread and an f-limited schedule drawn from the full fault
	// palette.
	FamilyGeneric Family = "generic"
	// FamilyDelaySkew is the packet-preserving asymmetric link-delay attack
	// (network.SkewedDelay): no drops, no corruptions — only RTT asymmetry
	// targeting the Marzullo midpoint. Hostile variant delayskew!: the
	// model lies about its δ bound.
	FamilyDelaySkew Family = "delayskew"
	// FamilyChurn is a sustained corrupt/release stream pinned exactly at
	// the Definition 2 f-per-Θ budget boundary (adversary.Churn). Hostile
	// variant churn!: f+1 simultaneous liars — over budget, rejected by
	// Validate, flagged by the checker when forced through.
	FamilyChurn Family = "churn"
	// FamilyFlash releases all f faulty processors simultaneously — the
	// flash-recovery crowd whose rejoin-time tail Lemma 7(iii) bounds.
	FamilyFlash Family = "flash"
	// FamilyColdStart begins from arbitrary initial clock states (spreads
	// far beyond the generic δ-scale scatter), probing distance from the
	// self-stabilizing variants (Daliot–Dolev–Parnas).
	FamilyColdStart Family = "coldstart"
)

// FamilyWeight is one entry of a campaign mix: a family, its relative draw
// weight, and whether to run its designed-to-fail (hostile) variant.
type FamilyWeight struct {
	Family  Family
	Weight  int
	Hostile bool
}

// String renders the entry's canonical name: the family, with a "!" suffix
// for the hostile variant.
func (w FamilyWeight) String() string {
	if w.Hostile {
		return string(w.Family) + "!"
	}
	return string(w.Family)
}

// FamilyMix is a weighted set of families; each campaign run draws one entry
// with probability proportional to its weight. An empty mix means the
// generic generator only (the pre-family default).
type FamilyMix []FamilyWeight

// ParseFamilyMix parses a -family flag value: comma-separated family names,
// each optionally weighted `name:weight` (default weight 1) and optionally
// suffixed `!` for the family's designed-to-fail variant. Examples:
//
//	delayskew
//	delayskew:2,churn,flash,coldstart
//	churn!            (over-budget variant; violations expected)
//
// The returned mix is always validated: an invalid spec yields an error,
// never a zero-value family.
func ParseFamilyMix(spec string) (FamilyMix, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("campaign: empty family spec")
	}
	var mix FamilyMix
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("campaign: empty family entry in %q", spec)
		}
		name, weightStr, hasWeight := strings.Cut(entry, ":")
		weight := 1
		if hasWeight {
			w, err := strconv.Atoi(strings.TrimSpace(weightStr))
			if err != nil {
				return nil, fmt.Errorf("campaign: family %q: bad weight %q", name, weightStr)
			}
			weight = w
		}
		name = strings.TrimSpace(name)
		hostile := strings.HasSuffix(name, "!")
		mix = append(mix, FamilyWeight{
			Family:  Family(strings.TrimSuffix(name, "!")),
			Weight:  weight,
			Hostile: hostile,
		})
	}
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	return mix, nil
}

// Validate rejects unknown families, hostile variants that do not exist,
// non-positive weights, and duplicate entries. An empty mix is valid (it
// means generic-only).
func (m FamilyMix) Validate() error {
	seen := make(map[string]bool, len(m))
	for _, w := range m {
		switch w.Family {
		case FamilyGeneric, FamilyDelaySkew, FamilyChurn, FamilyFlash, FamilyColdStart:
		default:
			return fmt.Errorf("campaign: unknown adversary family %q (have generic, delayskew, churn, flash, coldstart)", w.Family)
		}
		if w.Hostile && w.Family != FamilyDelaySkew && w.Family != FamilyChurn {
			return fmt.Errorf("campaign: family %q has no hostile variant (only delayskew! and churn!)", w.Family)
		}
		if w.Weight <= 0 {
			return fmt.Errorf("campaign: family %q has non-positive weight %d", w.String(), w.Weight)
		}
		if seen[w.String()] {
			return fmt.Errorf("campaign: family %q listed twice", w.String())
		}
		seen[w.String()] = true
	}
	return nil
}

// String renders the mix back into ParseFamilyMix's syntax.
func (m FamilyMix) String() string {
	parts := make([]string, len(m))
	for i, w := range m {
		parts[i] = w.String()
		if w.Weight != 1 {
			parts[i] += ":" + strconv.Itoa(w.Weight)
		}
	}
	return strings.Join(parts, ",")
}

// pickFamily chooses the family for one seed. The choice is drawn from its
// own seed-keyed stream, separate from the scenario generator's rng: a
// single-family replay of a failing mixed-campaign seed then consumes the
// scenario stream identically, so `-family churn -seed N` reproduces the
// churn scenario a mixed campaign produced for seed N bit-for-bit.
func (c Config) pickFamily(seed int64) FamilyWeight {
	if len(c.Families) == 0 {
		return FamilyWeight{Family: FamilyGeneric, Weight: 1}
	}
	if len(c.Families) == 1 {
		return c.Families[0]
	}
	total := 0
	for _, w := range c.Families {
		total += w.Weight
	}
	rng := seededRand(seed*0x51ED2701 + 0x2545F491)
	k := rng.Intn(total)
	sourcePool.Put(rng)
	for _, w := range c.Families {
		if k < w.Weight {
			return w
		}
		k -= w.Weight
	}
	return c.Families[len(c.Families)-1]
}

// familyScenario expands one non-generic family draw into a scenario. The
// shared skeleton matches the generic generator (same n/f/Θ/δ-derived
// parameters, checker on); each family fills in its delay model, schedule
// and spread, and may return a per-node config mutation (the hostile
// delayskew variant widens victims' estimation timeout so the skewed
// readings are accepted rather than timed out).
func (c Config) familyScenario(fw FamilyWeight, seed int64, rng *rand.Rand) scenario.Scenario {
	s := scenario.Scenario{
		Name:     "campaign/" + fw.String(),
		Seed:     seed,
		N:        c.N,
		F:        c.F,
		Duration: c.Duration,
		Theta:    c.Theta,
		Rho:      c.Rho,
		SyncInt:  c.SyncInt,
		// Pinned to the campaign-level 2δ for the same tie-breaking reason
		// as the generic generator (see Scenario).
		MaxWait:     2 * c.Delta,
		SamplePeers: c.SamplePeers,
		Check:       true,
	}
	var mutate func(*core.Config, scenario.BuildContext)
	switch fw.Family {
	case FamilyDelaySkew:
		mutate = c.delaySkew(&s, rng, fw.Hostile)
	case FamilyChurn:
		c.churn(&s, rng, fw.Hostile)
	case FamilyFlash:
		c.flash(&s, rng)
	case FamilyColdStart:
		c.coldStart(&s, rng)
	default:
		panic(fmt.Sprintf("campaign: familyScenario(%q)", fw.Family))
	}
	switch {
	case mutate != nil && c.Mutate != nil:
		fam, user := mutate, c.Mutate
		s.Builder = scenario.SyncBuilder(func(cfg *core.Config, ctx scenario.BuildContext) {
			fam(cfg, ctx)
			user(cfg, ctx)
		})
	case mutate != nil:
		s.Builder = scenario.SyncBuilder(mutate)
	case c.Mutate != nil:
		s.Builder = scenario.SyncBuilder(c.Mutate)
	}
	return s
}

// delaySkew configures the DelaySkew family: no corruptions, no drops — the
// network itself is the adversary (network.SkewedDelay). A reading here is
// an interval: over = offset + d_req, under = offset − d_rep (Definition 4),
// and with non-negative delays every interval contains the true offset no
// matter how asymmetric the link — so the trimmed Marzullo midpoint can only
// be pulled as far as the widest accepted interval reaches. Honestly
// parameterized (Slow ≤ δ, both groups ≥ f+1), that reach is ≤ δ/2, deep
// inside the Theorem 5 envelope: the checker must stay quiet while the
// attack does its worst.
//
// Truthful intervals also mean a delay-only adversary cannot displace a
// synchronized clock at all — Figure 1's own-clock clamp keeps delta at 0
// while 0 ∈ [mm, m] — so the out-of-δ variant (delayskew!) attacks the one
// thing skew can deny: the message exchange itself. A single victim's links
// are skewed to σ·δ (σ ∈ [40, 80]) while the model declares δ, putting every
// round trip past the 2δ estimation timeout: the victim's rounds starve and
// its clock can only coast. Then one scheduled clock smash makes the
// starvation visible — the released victim has no estimates to converge
// with, its distance never halves, and the checker's Lemma 7(iii) recovery
// checkpoints (then, Θ later, the deviation envelope) flag it on every
// seed.
func (c Config) delaySkew(s *scenario.Scenario, rng *rand.Rand, hostile bool) func(*core.Config, scenario.BuildContext) {
	boundary := c.N / 2
	if span := c.N - 2*c.F - 1; span >= 1 {
		// Both groups keep ≥ f+1 members: neither side can trim away all of
		// the other's estimates, so the skew bites symmetrically.
		boundary = c.F + 1 + rng.Intn(span)
	}
	model := network.SkewedDelay{
		Boundary: boundary,
		Slow:     c.Delta - simtime.Duration(rng.Float64()*float64(c.Delta)/16),
		Fast:     c.Delta / 64,
		InGroup:  network.NewUniformDelay(c.Delta/20, c.Delta/2),
	}
	s.InitSpread = simtime.Duration(rng.Float64() * float64(c.InitSpread))
	if !hostile {
		s.Delay = model
		return nil
	}
	sigma := 40 + 40*rng.Float64()
	model.Boundary = 1 // group A = the single victim, node 0
	model.Slow = simtime.Duration(sigma * float64(c.Delta))
	model.Declared = c.Delta
	s.Delay = model
	// The smash that exposes the starvation: the victim is released with an
	// offset it can never converge away, because every one of its round
	// trips exceeds MaxWait. Offsets start at 4 s ≫ 2(C+ε), so the k=1
	// halving checkpoint alone is already conclusive.
	sign := simtime.Duration(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	from := simtime.Time(2 * c.Theta)
	s.Adversary = adversary.Static([]int{0}, from, from.Add(2*c.SyncInt),
		func(int) protocol.Behavior {
			return adversary.ClockSmash{
				Offset: sign * logUniform(rng, 4*simtime.Second, 60*simtime.Second),
				Quiet:  true,
			}
		})
	return nil
}

// churn configures the ChurnBudget family: a sustained corrupt/release
// stream (adversary.Churn) pinned 1 ms inside the exact f-per-Θ budget
// boundary, behaviors drawn from the full palette. The hostile variant goes
// 1 over budget in the most damaging shape: f+1 processors simultaneously
// running ConsistentLiar with one shared offset Ω — every good node's
// trimmed midpoint then chases Ω/2 while n−(f+1) good processors remain for
// the checker to watch. Validate rejects that schedule; the campaign forces
// it through (UnsafeAdversary) precisely to prove the checker flags what the
// validator cannot vet.
func (c Config) churn(s *scenario.Scenario, rng *rand.Rand, hostile bool) {
	s.Delay = c.randomDelay(rng)
	s.DropProb = c.DropProb * rng.Float64()
	s.InitSpread = simtime.Duration(rng.Float64() * float64(c.InitSpread))
	if hostile {
		sign := simtime.Duration(1)
		if rng.Intn(2) == 0 {
			sign = -1
		}
		omega := sign * logUniform(rng, 4*simtime.Second, 60*simtime.Second)
		victims := rng.Perm(c.N)[:c.F+1]
		from := simtime.Time(2 * c.Theta)
		s.Adversary = adversary.Static(victims, from, from.Add(c.Theta/2),
			func(int) protocol.Behavior { return adversary.ConsistentLiar{Offset: omega} })
		s.UnsafeAdversary = true
		return
	}
	minDwell := c.SyncInt
	maxDwell := simtime.Duration(float64(c.Theta) / float64(2*c.F))
	if maxDwell < 2*c.SyncInt {
		maxDwell = 2 * c.SyncInt
	}
	dwell := minDwell + simtime.Duration(rng.Float64()*float64(maxDwell-minDwell))
	// Leave Θ of quiet tail so the final release's recovery is observable.
	s.Adversary = adversary.Churn(c.N, c.F,
		simtime.Time(2*c.Theta), simtime.Time(c.Duration-c.Theta),
		dwell, c.Theta, simtime.Millisecond,
		func(int) protocol.Behavior { return c.randomBehavior(rng) })
}

// flash configures the FlashRecovery family: waves in which all f
// processors of the period are corrupted together (quiet clock smashes with
// log-uniform offsets) and released at the same instant — the rejoin crowd
// whose recovery-time tail Lemma 7(iii) bounds, and the checker's
// per-release halving checkpoints measure. Waves are spaced Θ+dwell+SyncInt
// apart, so each wave's extended windows clear before the next and the
// schedule sits exactly at the f-per-window boundary.
func (c Config) flash(s *scenario.Scenario, rng *rand.Rand) {
	s.Delay = c.randomDelay(rng)
	s.InitSpread = simtime.Duration(rng.Float64() * float64(c.InitSpread))
	dwell := 2 * c.SyncInt
	stride := c.Theta + dwell + c.SyncInt
	latest := simtime.Time(c.Duration - c.Theta - dwell)
	var sched adversary.Schedule
	for at := simtime.Time(2 * c.Theta); at <= latest; at = at.Add(stride) {
		victims := rng.Perm(c.N)[:c.F]
		wave := adversary.Static(victims, at, at.Add(dwell), func(int) protocol.Behavior {
			sign := simtime.Duration(1)
			if rng.Intn(2) == 0 {
				sign = -1
			}
			return adversary.ClockSmash{
				Offset: sign * logUniform(rng, 100*simtime.Millisecond, 60*simtime.Second),
				Quiet:  true,
			}
		})
		sched.Corruptions = append(sched.Corruptions, wave.Corruptions...)
	}
	s.Adversary = sched
}

// coldStart configures the ColdStart family: no corruptions, but arbitrary
// initial clock states — spreads log-uniform in [1 s, 300 s], decades beyond
// the generic campaign's δ-scale scatter. scenario.Run's warm-up horizon
// scales with InitSpread (≈ log₂(spread/ε) sync intervals), so the checker
// engages exactly when convergence is due: a protocol that fails to contract
// from an arbitrary state still fails the run.
func (c Config) coldStart(s *scenario.Scenario, rng *rand.Rand) {
	s.Delay = c.randomDelay(rng)
	s.InitSpread = logUniform(rng, simtime.Second, 300*simtime.Second)
}

// DisableVictimRecovery is the Lemma 7(iii) teeth-check mutation: every
// processor the schedule ever corrupts has its Sync interval inflated 1000×,
// so after release it keeps its wrecked clock instead of halving its
// distance every T. A FlashRecovery campaign run with this mutation must
// report recovery (and, for large offsets, deviation) violations — a checker
// that stays quiet has lost its teeth. Wired to synccampaign
// -mutate-recovery.
func DisableVictimRecovery(cfg *core.Config, ctx scenario.BuildContext) {
	for _, cor := range ctx.Scenario.Adversary.Corruptions {
		if cor.Node == ctx.Index {
			cfg.SyncInt *= 1000
			return
		}
	}
}
