package scenario

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/clock"
	"clocksync/internal/core"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// replay re-derives a run's clocks from their logs alone: a fresh
// clock.Local over each hardware clock, written as the run wrote it, so that
// its own arithmetic, not the report's, gives the bias at any instant.
type replay struct {
	clocks []*clock.Local
	ref    []*clock.Local
	step   []int
	gain   []int
}

func newReplay(res *Result) *replay {
	r := &replay{step: make([]int, len(res.Recorder.Clocks)), gain: make([]int, len(res.Recorder.Clocks))}
	for _, b := range res.Recorder.Clocks {
		c := b.(*clock.Local)
		r.clocks = append(r.clocks, c)
		r.ref = append(r.ref, clock.NewLocal(c.Hardware()))
	}
	return r
}

// spread is the good-set spread at τ with every write before τ applied, and
// the writes at τ too when right is set: the left or right limit at τ. The
// good set is the left one (just before τ) or the one at τ; instants are
// visited in increasing order.
func (r *replay) spread(res *Result, tau simtime.Time, right bool) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	goodAt := tau
	if !right {
		goodAt = simtime.Time(math.Nextafter(float64(tau), math.Inf(-1)))
	}
	look := simtime.Interval{Lo: goodAt.Add(-res.Recorder.Theta), Hi: goodAt}
	for i, c := range r.clocks {
		steps, gains := c.Steps(), c.Gains()
		for ; r.step[i] < len(steps) && (steps[r.step[i]].At < tau || right && steps[r.step[i]].At == tau); r.step[i]++ {
			r.ref[i].Adjust(steps[r.step[i]].At, steps[r.step[i]].Delta)
		}
		for ; r.gain[i] < len(gains) && (gains[r.gain[i]].At < tau || right && gains[r.gain[i]].At == tau); r.gain[i]++ {
			r.ref[i].SetGain(gains[r.gain[i]].At, gains[r.gain[i]].Gain)
		}
		if res.Recorder.Schedule.ControlledWithin(i, look) {
			continue
		}
		b := float64(r.ref[i].Bias(tau))
		lo, hi = math.Min(lo, b), math.Max(hi, b)
	}
	return max(hi-lo, 0)
}

// supremumRuns are small runs whose spread peaks just before corrections:
// a wide drift and no warm-up, a smash-and-release and a rotating adversary
// for good-set changes, drift compensation for gain changes, and a
// tick-quantized run.
func supremumRuns() []Scenario {
	base := Scenario{
		N: 5, F: 1, Duration: 4 * simtime.Minute, Theta: simtime.Minute,
		Rho: 1e-3, SyncInt: 10 * simtime.Second,
	}
	smash := func(s *Scenario) {
		s.Adversary = adversary.Static([]int{2}, 70, 90, func(int) protocol.Behavior {
			return adversary.ClockSmash{Offset: 2 * simtime.Second}
		})
	}
	var out []Scenario
	for _, v := range []struct {
		name string
		set  func(*Scenario)
	}{
		{"drift", func(*Scenario) {}},
		{"smash", smash},
		{"rotate", func(s *Scenario) {
			s.Adversary = adversary.Rotate(5, 1, 30, 20*simtime.Second, s.Theta, 3,
				func(int) protocol.Behavior { return adversary.ClockSmash{Offset: 1} })
		}},
		{"driftcomp", func(s *Scenario) {
			smash(s)
			s.Builder = SyncBuilder(func(c *core.Config, _ BuildContext) { c.DriftComp = true })
		}},
		{"tick", func(s *Scenario) { s.Tick = 3 * simtime.Millisecond }},
	} {
		for _, shards := range []int{0, 2} {
			s := base
			v.set(&s)
			s.Name, s.Seed, s.Shards = fmt.Sprintf("%s/shards=%d", v.name, shards), 7, shards
			out = append(out, s)
		}
	}
	return out
}

// TestMaxDeviationIsSupremum checks the report's MaxDeviation against brute
// force on small runs. The good-set spread, evaluated from a replay of the
// clocks' logs on a 1 ms grid over the measured span, never exceeds it (by
// less than one Tick on a quantized run, whose readings step between
// instants), and it is reached: the largest left or right limit at a clock
// write or good-set change, replayed the same way, equals it. A report that
// skipped the left limits would read the peaks just after the corrections
// that end them, below both.
func TestMaxDeviationIsSupremum(t *testing.T) {
	for _, s := range supremumRuns() {
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		maxDev := float64(res.Report.MaxDeviation)
		skip := res.Scenario.Params().WarmupCutoff(res.Scenario.InitSpread)
		end := simtime.Time(s.Duration)

		slack := 1e-9 + float64(s.Tick)
		grid, rg := 0.0, newReplay(res)
		for k := math.Ceil(float64(skip) * 1000); k <= float64(end)*1000; k++ {
			grid = max(grid, rg.spread(res, simtime.Time(k/1000), true))
		}
		if grid > maxDev+slack {
			t.Errorf("%s: the spread reaches %.9g on the grid, above MaxDeviation %.9g", s.Name, grid, maxDev)
		}

		var instants []simtime.Time
		for _, c := range newReplay(res).clocks {
			for _, st := range c.Steps() {
				instants = append(instants, st.At)
			}
			for _, g := range c.Gains() {
				instants = append(instants, g.At)
			}
		}
		for _, c := range res.Scenario.Adversary.Corruptions {
			instants = append(instants, c.From, c.To.Add(res.Scenario.Theta))
		}
		instants = append(instants, skip, end)
		slices.Sort(instants)
		limits, rl := 0.0, newReplay(res)
		for _, tau := range slices.Compact(instants) {
			if tau < skip || tau > end {
				continue
			}
			if tau > skip {
				limits = max(limits, rl.spread(res, tau, false))
			}
			limits = max(limits, rl.spread(res, tau, true))
		}
		if math.Abs(limits-maxDev) > 1e-9 {
			t.Errorf("%s: MaxDeviation %.9g, but the largest limit at an event instant is %.9g", s.Name, maxDev, limits)
		}
		if grid <= 0 || maxDev <= 0 {
			t.Errorf("%s: nothing measured (grid %v, MaxDeviation %v)", s.Name, grid, maxDev)
		}
	}
}
