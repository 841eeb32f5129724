package check_test

import (
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/analysis"
	"clocksync/internal/check"
	"clocksync/internal/clock"
	"clocksync/internal/metrics"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// synthetic builds a checker, and the kernel that feeds it, over drift-free
// clocks at hand-placed biases — no simulation, so each invariant can be
// triggered in isolation. The tests play the driver:
// c.Round(m.Measure(at), node, delta) is one adjustment.
func synthetic(biases []simtime.Duration, sched adversary.Schedule, cfg check.Config) (*check.Checker, *metrics.Measurer) {
	clocks := make([]*clock.Local, len(biases))
	for i, b := range biases {
		clocks[i] = clock.NewLocal(clock.NewDrifting(0, simtime.Time(b), 1))
	}
	cfg.Schedule = sched
	return check.New(cfg), &metrics.Measurer{Clocks: metrics.FromClocks(clocks), Schedule: sched, Theta: 300}
}

func TestStepViolationReported(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 10, LogicalDrift: 1e-4}
	c, m := synthetic([]simtime.Duration{0, 0, 0}, adversary.Schedule{}, check.Config{Bounds: bounds})
	c.Round(m.Measure(100), 1, 0.5) // |delta| = 0.5 > MaxStep = 0.1
	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Invariant != check.InvariantStep || v.Node != 1 || v.At != 100 {
		t.Fatalf("wrong context: %+v", v)
	}
	if v.Observed != 0.5 || v.Bound != 0.1 {
		t.Fatalf("wrong measurement: observed %v bound %v", v.Observed, v.Bound)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "discontinuity") {
		t.Fatalf("Err() = %v, want a discontinuity error", err)
	}
}

func TestDeviationViolationNamesExtremes(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 10, MaxDeviation: 0.2, LogicalDrift: 1e-4}
	c, m := synthetic([]simtime.Duration{0, 1, 0.05}, adversary.Schedule{}, check.Config{Bounds: bounds})
	c.Round(m.Measure(50), 0, 0)
	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Invariant != check.InvariantDeviation || v.Node != -1 {
		t.Fatalf("wrong context: %+v", v)
	}
	if v.Observed != 1 {
		t.Fatalf("spread = %v, want 1s", v.Observed)
	}
	if !strings.Contains(v.Detail, "node 0") || !strings.Contains(v.Detail, "node 1") {
		t.Fatalf("detail does not name the extreme nodes: %q", v.Detail)
	}
}

func TestCleanEventsReportNothing(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 0.2, LogicalDrift: 1e-4}
	c, m := synthetic([]simtime.Duration{0, 0.01, 0.02}, adversary.Schedule{}, check.Config{Bounds: bounds})
	for i := 0; i < 10; i++ {
		c.Round(m.Measure(simtime.Time(10*i)), i%3, 0.001)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("clean run reported: %v", err)
	}
	if c.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", c.Dropped())
	}
}

func TestViolationLimitDropsExcess(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 10, LogicalDrift: 1e-4}
	c, m := synthetic([]simtime.Duration{0, 0}, adversary.Schedule{}, check.Config{Bounds: bounds, Limit: 2})
	for i := 0; i < 5; i++ {
		c.Round(m.Measure(simtime.Time(i)), 0, 1) // every event breaks the step bound
	}
	if got := len(c.Violations()); got != 2 {
		t.Fatalf("recorded %d violations, want limit 2", got)
	}
	if c.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", c.Dropped())
	}
}

func TestCorruptedNodeExemptFromChecks(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 0.2, LogicalDrift: 1e-4}
	sched := adversary.Schedule{Corruptions: []adversary.Corruption{
		{Node: 1, From: 90, To: 120, Behavior: adversary.Crash{}},
	}}
	// Node 1 is far out, but corrupted.
	c, m := synthetic([]simtime.Duration{0, 5, 0.01}, sched, check.Config{Bounds: bounds})
	// Node 1 was corrupted within the last Θ: its 5 s bias must not count
	// against the good-set spread, nor its jump against the step bound.
	c.Round(m.Measure(200), 1, 3)
	if err := c.Err(); err != nil {
		t.Fatalf("recovering node tripped a good-set invariant: %v", err)
	}
}

func TestWarmupSkipped(t *testing.T) {
	bounds := analysis.Bounds{Eps: 0.01, MaxStep: 0.1, MaxDeviation: 0.2, LogicalDrift: 1e-4}
	c, m := synthetic([]simtime.Duration{0, 2}, adversary.Schedule{}, check.Config{Bounds: bounds, SkipBefore: 50})
	c.Round(m.Measure(10), 0, 5) // violates everything, but inside warm-up
	if err := c.Err(); err != nil {
		t.Fatalf("warm-up event checked: %v", err)
	}
	c.Round(m.Measure(60), 0, 5)
	if err := c.Err(); err == nil {
		t.Fatal("post-warm-up violation not reported")
	}
}

// End-to-end: the honest protocol with a mid-run smash-and-release must pass
// every invariant — recovery jumps are exempt by the good-set definition and
// the halving checkpoints tolerate the protocol's actual convergence.
func TestHonestScenarioWithRecoveryIsClean(t *testing.T) {
	s := scenario.Scenario{
		Name:       "check-recovery",
		Seed:       11,
		N:          7,
		F:          2,
		Duration:   20 * simtime.Minute,
		Theta:      5 * simtime.Minute,
		Rho:        1e-4,
		SyncInt:    10 * simtime.Second,
		InitSpread: 50 * simtime.Millisecond,
		Check:      true,
		Adversary: adversary.Schedule{Corruptions: []adversary.Corruption{
			{Node: 2, From: 600, To: 650,
				Behavior: adversary.ClockSmash{Offset: 5 * simtime.Second}},
		}},
	}
	res, err := scenario.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("honest run violated: %s", v)
	}
	// The checker rides the report's sweep, not the event stream.
	if res.Obs != nil || res.EventCounts != nil {
		t.Errorf("check-only run built an observer: Obs=%v EventCounts=%v", res.Obs, res.EventCounts)
	}
	found := false
	for _, rv := range res.Report.Recoveries {
		if rv.Node == 2 && rv.Ok {
			found = true
		}
	}
	if !found {
		t.Error("smashed node never recovered — scenario not exercising the checker's recovery path")
	}
}
