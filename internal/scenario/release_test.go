package scenario_test

import (
	"fmt"
	"testing"

	"clocksync/internal/campaign"
	"clocksync/internal/des"
	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// TestReleasedRunsMatchFreshRuns: a run that reserves the storage an earlier
// run released — one of another processor count, longer or shorter — records
// the same samples and report as a run on storage of its own. The reference
// runs come first, before this test releases anything.
func TestReleasedRunsMatchFreshRuns(t *testing.T) {
	runs := []struct {
		n        int
		duration simtime.Duration
	}{
		{13, 10 * simtime.Minute}, {7, 3 * simtime.Minute}, {13, 3 * simtime.Minute},
		{7, 10 * simtime.Minute}, {7, 3 * simtime.Minute},
	}
	scenarioOf := func(i int) scenario.Scenario {
		r := runs[i]
		return campaign.Config{N: r.n, Duration: r.duration}.Scenario(int64(i + 1))
	}
	label := func(i int) string { return fmt.Sprintf("n=%d %v", runs[i].n, runs[i].duration) }

	want := make([]string, len(runs))
	for i := range runs {
		res, err := scenario.Run(scenarioOf(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(label(i), res)
	}
	sim := des.New(0)
	for pass := 0; pass < 2; pass++ {
		for i := range runs {
			s := scenarioOf(i)
			s.ReuseSim = sim
			res, err := scenario.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(label(i), res); got != want[i] {
				t.Errorf("pass %d, after releasing %s: measured\n%s want\n%s", pass, label((i+len(runs)-1)%len(runs)), got, want[i])
			}
			report, violations := res.Report, len(res.Violations)
			res.Release()
			if res.Recorder != nil {
				t.Fatal("Result.Release left the recorder on the result")
			}
			if res.Report.MaxDeviation != report.MaxDeviation || len(res.Violations) != violations {
				t.Fatal("Result.Release changed the report or the violations")
			}
		}
	}
}
