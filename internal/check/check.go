// Package check is an invariant checker for Sync runs. Its driver hands it
// metrics.Samples in time order — a simulation's report sweep after the run
// (metrics.Recorder.BuildReport), on either engine, or livenet's chaos
// harness live — and it asserts Theorem 5 on them: the good-set deviation
// envelope, the per-step discontinuity bound and the Equation 3 accuracy
// envelope, plus the Lemma 7(iii)/Claim 8(iii) distance-halving of
// recovering processors at checkpoints after every release.
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

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/metrics"
	"clocksync/internal/simtime"
)

// Invariant names, used in Violation.Invariant and the JSONL output of
// cmd/synccampaign.
const (
	// InvariantDeviation is Theorem 5(i): good-set deviation ≤ Δ.
	InvariantDeviation = "deviation"
	// InvariantStep bounds a good processor's step by MaxStep = Δ/2 + ε.
	InvariantStep = "discontinuity"
	// InvariantAccuracy bounds Equation 3's drawdown/runup by Δ.
	InvariantAccuracy = "accuracy"
	// InvariantRecovery is Lemma 7(iii)'s halving of a released processor's
	// distance from the good range, interval by interval (see Attach).
	InvariantRecovery = "recovery"
)

// Violation is one invariant breach, located for a trace: the instant, the
// processor (−1 for a property of the whole good set), and the observed value
// against the bound it broke.
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

// Config parameterizes a Checker for one run. SkipBefore excludes the
// warm-up transient the guarantees do not cover (they assume a synchronized
// start); Limit caps the recorded violations (0 means 64), and Dropped
// counts the rest.
type Config struct {
	Schedule   adversary.Schedule // places the recovery checkpoints
	Bounds     analysis.Bounds
	SkipBefore simtime.Time
	Limit      int
}

// Checker evaluates the invariants on the samples its driver hands it. It
// assumes single-threaded use — a report's sweep, or a live harness's lock —
// and must not be shared across runs.
type Checker struct {
	cfg     Config // Limit defaulted
	viols   []Violation
	dropped int
	acc     []metrics.Envelope // per node, over its current good stretch
}

// New builds a checker for one run.
func New(cfg Config) *Checker {
	if cfg.Limit <= 0 {
		cfg.Limit = 64
	}
	return &Checker{cfg: cfg}
}

// Attach schedules the Lemma 7(iii) recovery checkpoints: for every
// corruption released at τ_r ≥ SkipBefore, the recovering processor's
// distance to the good range is measured at τ_r and at τ_r + k·T for
// k = 1..K, until the node is corrupted again. The k-th asserts
// dist ≤ max(dist₀/2ᵏ + 2C + 2ε, Δ): the 2C + 2ε residue covers the
// per-step C/2 loss of Claim 8(iii) plus reading error, and the Δ floor ends
// tracking, since inside the deviation envelope the processor has rejoined.
// Call Attach once, before the first Round. at(t, fn) must call fn with the
// sample of instant t: metrics.Recorder.At in a simulation, a measurement on
// a scaled wall-clock timer in a live harness, serialized with Round.
func (c *Checker) Attach(at func(t simtime.Time, fn func(metrics.Sample))) {
	b := c.cfg.Bounds
	for _, cor := range c.cfg.Schedule.Corruptions {
		if cor.To < c.cfg.SkipBefore {
			continue // the good range is still converging from the initial spread
		}
		next := simtime.Time(math.Inf(1)) // the node's next corruption
		for _, other := range c.cfg.Schedule.Corruptions {
			if other.Node == cor.Node && other.From >= cor.To && other.From < next {
				next = other.From
			}
		}
		var dist0 simtime.Duration
		tracking := false
		at(cor.To, func(s metrics.Sample) { dist0, tracking = s.DistanceToGood(cor.Node) })
		for k := 1; k <= b.K && cor.To.Add(simtime.Duration(k)*b.T) < next; k++ {
			at(cor.To.Add(simtime.Duration(k)*b.T), func(s metrics.Sample) {
				dist, ok := s.DistanceToGood(cor.Node)
				if !tracking || !ok || c.cfg.Schedule.ActiveAt(cor.Node, s.At) {
					return
				}
				env := float64(dist0)/math.Pow(2, float64(k)) + float64(2*b.C) + float64(2*b.Eps)
				bound := math.Max(env, float64(b.MaxDeviation))
				if tracking = dist > b.MaxDeviation && !c.exceeds(float64(dist), bound); dist > b.MaxDeviation && !tracking {
					c.report(Violation{
						At: s.At, Node: cor.Node, Invariant: InvariantRecovery,
						Observed: dist, Bound: simtime.Duration(bound),
						Detail: fmt.Sprintf("distance %d intervals after release at %v not halved (started at %v)",
							k, cor.To, dist0),
					})
				}
			})
		}
	}
}

// Round asserts the deviation, per-step and accuracy invariants on s. node
// and delta are the step made at s.At, if s comes with one; node is −1 when
// it does not.
func (c *Checker) Round(s metrics.Sample, node int, delta simtime.Duration) {
	if s.At < c.cfg.SkipBefore {
		return
	}
	if c.acc == nil {
		c.acc = make([]metrics.Envelope, len(s.Good))
	}
	// A recovering processor is exempt from the step bound: one corrupted
	// within the last Θ is not good, and its WayOff jump is the recovery.
	if d := delta.Abs(); node >= 0 && node < len(s.Good) && s.Good[node] && c.exceeds(float64(d), float64(c.cfg.Bounds.MaxStep)) {
		c.report(Violation{
			At: s.At, Node: node, Invariant: InvariantStep,
			Observed: d, Bound: c.cfg.Bounds.MaxStep,
			Detail: "single adjustment of a good processor above Δ/2 + ε",
		})
	}
	c.checkDeviation(s)
	c.checkAccuracy(s)
}

// Violations returns the recorded breaches in detection order.
func (c *Checker) Violations() []Violation { return c.viols }

// Dropped returns how many breaches were discarded beyond the record limit.
func (c *Checker) Dropped() int { return c.dropped }

// Err returns the first violation as an error, nil when there is none.
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

// exceeds compares with a 1 ns absolute tolerance for float noise.
func (c *Checker) exceeds(observed, bound float64) bool {
	return observed > bound+1e-9
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
		if g {
			goodCount++
			if loNode < 0 || s.Biases[i] < s.Biases[loNode] {
				loNode = i
			}
			if hiNode < 0 || s.Biases[i] > s.Biases[hiNode] {
				hiNode = i
			}
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
