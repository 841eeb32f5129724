// Package check is an online invariant checker for Sync runs. It holds no
// clocks and evaluates no good set of its own: the driver hands it the
// metrics.Sample taken at every adjustment instant — the simulator's recorder
// takes one there anyway, livenet's chaos harness measures its live nodes
// with the same kernel — and the checker asserts the Theorem 5 guarantees on
// it: the deviation envelope over the good set, the per-step discontinuity
// bound, and the Equation 3 accuracy envelope. At scheduled checkpoints after
// every release it asserts the Lemma 7(iii)/Claim 8(iii) distance-halving of
// recovering processors on a sample it asks the run's metrics.Measurer for.
// The first violation is reported with full context (τ, node, observed value
// vs. bound); experiments are eyeballed, campaigns are machine-checked.
//
// Two bounds are deliberately not the literal OCR'd constants:
//
//   - Accuracy (Equation 3 drawdown/runup) is checked against Δ, not the
//     literal ψ = ε + C/2: a clock may wander across the width of the good
//     pack, which the literal reading does not allow (see DESIGN.md,
//     "Known deviations", and the discussion in scenario's fuzz test).
//   - Per-step adjustments are checked against MaxStep = Δ/2 + ε (half the
//     deviation envelope plus one reading error), the provable per-execution
//     bound; ψ is the *net* envelope bound, not a per-step one.
package check

import (
	"fmt"
	"math"

	"clocksync/internal/analysis"
	"clocksync/internal/metrics"
	"clocksync/internal/simtime"
)

// Invariant names, used in Violation.Invariant and the JSONL output of
// cmd/synccampaign.
const (
	// InvariantDeviation is Theorem 5(i): good-set deviation ≤ Δ.
	InvariantDeviation = "deviation"
	// InvariantStep bounds any single adjustment of a good, warmed-up
	// processor by MaxStep = Δ/2 + ε.
	InvariantStep = "discontinuity"
	// InvariantAccuracy is the Equation 3 rate envelope over good stretches:
	// drawdown/runup against the ρ̃ lines, bounded by Δ.
	InvariantAccuracy = "accuracy"
	// InvariantRecovery is the Lemma 7(iii) halving schedule: a released
	// processor's distance from the good range is ≤ dist₀/2ᵏ (plus residue)
	// k intervals after release, and within Δ before the period ends.
	InvariantRecovery = "recovery"
)

// Violation is one invariant breach, with enough context to locate it in a
// trace: the simulated instant, the processor concerned (−1 when the breach
// is a property of the whole good set), and the observed value against the
// bound it broke.
type Violation struct {
	At        simtime.Time     `json:"at"`
	Node      int              `json:"node"`
	Invariant string           `json:"invariant"`
	Observed  simtime.Duration `json:"observed"`
	Bound     simtime.Duration `json:"bound"`
	Detail    string           `json:"detail,omitempty"`
}

// String renders the violation for humans.
func (v Violation) String() string {
	return fmt.Sprintf("%s violated at τ=%v (node %d): observed %v > bound %v — %s",
		v.Invariant, v.At, v.Node, v.Observed, v.Bound, v.Detail)
}

// Config parameterizes a Checker. Measure and Bounds come from the run being
// checked; SkipBefore excludes the warm-up transient the guarantees do not
// cover (they assume a synchronized start).
type Config struct {
	// Measure is the run's measurement kernel: the checker places its
	// recovery checkpoints by the kernel's corruption schedule and takes their
	// samples from it. Round samples must come from the same kernel.
	Measure *metrics.Measurer
	Bounds  analysis.Bounds
	// SkipBefore disables deviation/step/accuracy checks before this instant
	// (warm-up convergence from a scattered start).
	SkipBefore simtime.Time
	// Limit caps the number of recorded violations (0 means 64); further
	// breaches are counted in Dropped.
	Limit int
}

// Checker evaluates the invariants online: the driver calls Round with the
// sample taken at every adjustment, and Attach schedules the per-release
// recovery checkpoints. The checker assumes single-threaded use — the
// simulation loop, or a live harness's lock — and must not be shared across
// runs.
type Checker struct {
	cfg Config // Limit defaulted

	viols   []Violation
	dropped int

	acc  []metrics.Envelope // per node, over its current good stretch
	recs []recoveryTrack
}

// recoveryTrack follows one release event through its halving checkpoints.
type recoveryTrack struct {
	node    int
	release simtime.Time
	dist0   simtime.Duration
	have0   bool
	done    bool
}

// New builds a checker for one run.
func New(cfg Config) *Checker {
	if cfg.Limit <= 0 {
		cfg.Limit = 64
	}
	return &Checker{cfg: cfg, acc: make([]metrics.Envelope, len(cfg.Measure.Clocks))}
}

// Attach schedules the Lemma 7(iii) recovery checkpoints: for every
// corruption released at τ_r ≥ SkipBefore, the recovering processor's
// distance to the good range is measured at τ_r + k·T for k = 1..K
// (stopping early if the node is corrupted again). Call it once, before the
// run starts. at decides what "at instant t" means — des.Sim.At in a
// simulation, scaled wall-clock timers in a live harness — but the callbacks
// themselves assume the checker's single-threaded discipline, so a live
// harness must serialize them with the Round feed.
func (c *Checker) Attach(at func(t simtime.Time, fn func())) {
	k := c.cfg.Bounds.K
	t := c.cfg.Bounds.T
	corruptions := c.cfg.Measure.Schedule.Corruptions
	for _, cor := range corruptions {
		if cor.To < c.cfg.SkipBefore {
			// Released into the warm-up transient: the "good range" is still
			// converging from the initial spread, so halving against it is
			// not meaningful.
			continue
		}
		// Tracking ends where the node's next corruption begins.
		next := simtime.Time(math.Inf(1))
		for _, other := range corruptions {
			if other.Node == cor.Node && other.From >= cor.To && other.From < next {
				next = other.From
			}
		}
		c.recs = append(c.recs, recoveryTrack{node: cor.Node, release: cor.To})
		idx := len(c.recs) - 1
		at(cor.To, func() { c.recordRelease(idx) })
		for step := 1; step <= k; step++ {
			when := cor.To.Add(simtime.Duration(step) * t)
			if when >= next {
				break
			}
			step := step
			at(when, func() { c.recoveryCheckpoint(idx, step, when) })
		}
	}
}

// Round asserts the deviation, per-step and accuracy invariants on s, the
// sample taken the instant node completed a Sync execution and adjusted its
// clock by delta.
func (c *Checker) Round(s metrics.Sample, node int, delta simtime.Duration) {
	if s.At < c.cfg.SkipBefore {
		return
	}
	c.checkStep(s, node, delta)
	c.checkDeviation(s)
	c.checkAccuracy(s)
}

// Violations returns the recorded breaches in detection order.
func (c *Checker) Violations() []Violation { return c.viols }

// Dropped returns how many breaches were discarded beyond the record limit.
func (c *Checker) Dropped() int { return c.dropped }

// Err returns the first violation as an error, or nil when every checked
// invariant held.
func (c *Checker) Err() error {
	if len(c.viols) == 0 {
		return nil
	}
	return fmt.Errorf("check: %s", c.viols[0])
}

func (c *Checker) report(v Violation) {
	if len(c.viols) >= c.cfg.Limit {
		c.dropped++
		return
	}
	c.viols = append(c.viols, v)
}

// exceeds compares against the exact bound with a 1 ns absolute tolerance
// for float noise.
func (c *Checker) exceeds(observed, bound float64) bool {
	return observed > bound+1e-9
}

// checkStep asserts the per-execution adjustment bound for good processors.
// Recovering processors are exempt by construction: a node corrupted within
// the last Θ is not in the good set, and its WayOff jump is exactly the
// recovery mechanism.
func (c *Checker) checkStep(s metrics.Sample, node int, delta simtime.Duration) {
	if node < 0 || node >= len(s.Good) || !s.Good[node] {
		return
	}
	if d := delta.Abs(); c.exceeds(float64(d), float64(c.cfg.Bounds.MaxStep)) {
		c.report(Violation{
			At: s.At, Node: node, Invariant: InvariantStep,
			Observed: d, Bound: c.cfg.Bounds.MaxStep,
			Detail: "single adjustment of a good processor above Δ/2 + ε",
		})
	}
}

// checkDeviation asserts Theorem 5(i) at this instant: the spread of the
// good processors' logical clocks is at most Δ.
func (c *Checker) checkDeviation(s metrics.Sample) {
	if !c.exceeds(float64(s.Deviation), float64(c.cfg.Bounds.MaxDeviation)) {
		return
	}
	// Only a breach needs to know which processors span the spread.
	loNode, hiNode, goodCount := -1, -1, 0
	for i, g := range s.Good {
		if !g {
			continue
		}
		goodCount++
		if loNode < 0 || s.Biases[i] < s.Biases[loNode] {
			loNode = i
		}
		if hiNode < 0 || s.Biases[i] > s.Biases[hiNode] {
			hiNode = i
		}
	}
	c.report(Violation{
		At: s.At, Node: -1, Invariant: InvariantDeviation,
		Observed: s.Deviation, Bound: c.cfg.Bounds.MaxDeviation,
		Detail: fmt.Sprintf("good-set spread between node %d and node %d (%d good)",
			loNode, hiNode, goodCount),
	})
}

// checkAccuracy advances the Equation 3 envelope of every good processor to
// this instant and asserts drawdown/runup stay within Δ. Stretches restart
// whenever a processor leaves the good set, and after a breach.
func (c *Checker) checkAccuracy(s metrics.Sample) {
	bound := c.cfg.Bounds.MaxDeviation
	for i := range c.acc {
		env := &c.acc[i]
		if !s.Good[i] {
			env.Reset()
			continue
		}
		drawdown, runup := env.Advance(s.At, s.Biases[i], c.cfg.Bounds.LogicalDrift)
		v := Violation{At: s.At, Node: i, Invariant: InvariantAccuracy, Bound: bound}
		switch {
		case c.exceeds(float64(drawdown), float64(bound)):
			v.Observed, v.Detail = drawdown, "clock fell below the (1+ρ̃)⁻¹ rate line by more than Δ"
		case c.exceeds(float64(runup), float64(bound)):
			v.Observed, v.Detail = runup, "clock ran above the (1+ρ̃) rate line by more than Δ"
		default:
			continue
		}
		c.report(v)
		env.Reset()
	}
}

// recordRelease captures the recovering processor's starting distance from
// the good range at its release instant.
func (c *Checker) recordRelease(idx int) {
	tr := &c.recs[idx]
	dist, ok := c.cfg.Measure.Measure(tr.release).DistanceToGood(tr.node)
	if !ok {
		return // no good processors to measure against; leave have0 unset
	}
	tr.dist0, tr.have0 = dist, true
}

// recoveryCheckpoint asserts the halving envelope k intervals after release:
// dist ≤ max(dist₀/2ᵏ + 2C + 2ε, Δ). The 2C + 2ε residue covers the per-step
// C/2 loss of Claim 8(iii) plus reading error; the Δ floor ends tracking —
// once inside the deviation envelope the processor has rejoined and its
// distance is governed by Theorem 5(i), not the halving schedule.
func (c *Checker) recoveryCheckpoint(idx, k int, at simtime.Time) {
	tr := &c.recs[idx]
	if tr.done || !tr.have0 || c.cfg.Measure.Schedule.ActiveAt(tr.node, at) {
		return
	}
	dist, ok := c.cfg.Measure.Measure(at).DistanceToGood(tr.node)
	if !ok {
		return
	}
	floor := c.cfg.Bounds.MaxDeviation
	if dist <= floor {
		tr.done = true
		return
	}
	env := float64(tr.dist0)/math.Pow(2, float64(k)) +
		float64(2*c.cfg.Bounds.C) + float64(2*c.cfg.Bounds.Eps)
	if bound := math.Max(env, float64(floor)); c.exceeds(float64(dist), bound) {
		c.report(Violation{
			At: at, Node: tr.node, Invariant: InvariantRecovery,
			Observed: dist, Bound: simtime.Duration(bound),
			Detail: fmt.Sprintf("distance %d intervals after release at %v not halved (started at %v)",
				k, tr.release, tr.dist0),
		})
		tr.done = true
	}
}
