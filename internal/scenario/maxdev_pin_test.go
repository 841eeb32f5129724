package scenario

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/core"
	"clocksync/internal/protocol"
	"clocksync/internal/simtime"
)

// pinRuns is the scenario set of the MaxDeviation pin: full-mesh and sampled,
// honest and hostile (a RandomLiar with message loss, a smash-and-release, a
// rotating smash), a tick-quantized and a drift-compensated run, each on the
// serial engine and at one shard, four seeds each.
func pinRuns() []Scenario {
	base := Scenario{
		N: 7, F: 2,
		Duration:   10 * simtime.Minute,
		Theta:      5 * simtime.Minute,
		Rho:        1e-4,
		SyncInt:    10 * simtime.Second,
		InitSpread: 50 * simtime.Millisecond,
	}
	variants := map[string]func(*Scenario){
		"honest": func(*Scenario) {},
		"sampled": func(s *Scenario) {
			s.N, s.SamplePeers = 16, 7
		},
		"liar": func(s *Scenario) {
			s.DropProb = 0.01
			s.Adversary = adversary.Static([]int{3}, 120, 400, func(int) protocol.Behavior {
				return adversary.RandomLiar{Amplitude: 200 * simtime.Millisecond}
			})
		},
		"smash": func(s *Scenario) {
			s.Adversary = adversary.Static([]int{2}, 200, 250, func(int) protocol.Behavior {
				return adversary.ClockSmash{Offset: 5 * simtime.Second}
			})
		},
		"rotate": func(s *Scenario) {
			s.Adversary = adversary.Rotate(7, 2, 60, 30*simtime.Second, s.Theta, 4,
				func(int) protocol.Behavior { return adversary.ClockSmash{Offset: 10} })
		},
		"tick": func(s *Scenario) { s.Tick = simtime.Millisecond },
		"driftcomp": func(s *Scenario) {
			s.Rho = 1e-3
			s.Builder = SyncBuilder(func(c *core.Config, _ BuildContext) { c.DriftComp = true })
		},
	}
	var out []Scenario
	for _, name := range []string{"honest", "sampled", "liar", "smash", "rotate", "tick", "driftcomp"} {
		for _, shards := range []int{0, 1} {
			for seed := int64(1); seed <= 4; seed++ {
				s := base
				variants[name](&s)
				s.Name = fmt.Sprintf("%s/shards=%d/seed=%d", name, shards, seed)
				s.Seed, s.Shards = seed, shards
				out = append(out, s)
			}
		}
	}
	return out
}

// TestMaxDeviationPin holds the report's MaxDeviation against the values in
// testdata/maxdev_parent.txt, measured on the same runs before reports were
// computed from the clocks' trajectories. The trajectory sweep evaluates the
// good-set spread at every instant the sampled report looked at (and at both
// limits of every clock write), so on every run it must read at least the
// sampled value, up to 1 ns of float noise. The file is the old code's
// output: never regenerate it from the current code.
func TestMaxDeviationPin(t *testing.T) {
	want := readMaxDevPin(t)
	runs := pinRuns()
	if len(want) != len(runs) {
		t.Fatalf("pin file has %d runs, the set has %d", len(want), len(runs))
	}
	for _, s := range runs {
		parent, ok := want[s.Name]
		if !ok {
			t.Fatalf("%s: not in the pin file", s.Name)
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got := float64(res.Report.MaxDeviation); got < parent-1e-9 {
			t.Errorf("%s: MaxDeviation %.9g below the sampled value %.9g", s.Name, got, parent)
		}
	}
}

func readMaxDevPin(t *testing.T) map[string]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "maxdev_parent.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			t.Fatalf("bad pin line %q", line)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
