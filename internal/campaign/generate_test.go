package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clocksync/internal/scenario"
	"clocksync/internal/simtime"
)

// benchmarkMix is the honest family mix the campaign benchmark runs.
func benchmarkMix(t *testing.T) Config {
	t.Helper()
	mix, err := ParseFamilyMix("delayskew:2,churn,flash,coldstart")
	if err != nil {
		t.Fatal(err)
	}
	return Config{Families: mix, Duration: 5 * simtime.Minute, MaxCorruptions: 2}
}

// TestGenerateAllocBudget pins what expanding a seed allocates: the
// scenario's schedule, behaviours and delay model, and no random source —
// the scenario's and the family pick's streams are SplitMix64 words on the
// stack. Measured 2 allocs and 51 B per seed over the benchmark's mix; with
// a fresh 4.9 kB math/rand source per generator it was 4 allocs and 10.8 kB.
func TestGenerateAllocBudget(t *testing.T) {
	cfg := benchmarkMix(t)
	seed := int64(0)
	allocs := testing.AllocsPerRun(500, func() {
		cfg.Scenario(seed)
		seed++
	})
	if allocs > 3 {
		t.Errorf("Config.Scenario: %v allocs per seed, budget 3 — a generator stream left the stack", allocs)
	}
}

// drawn renders what Config.Scenario drew for one seed: its name, delay
// model, scalars and schedule, with %#v, behaviours behind pointers printed
// by value so that two draws compare as text.
func drawn(s scenario.Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %#v drop=%v spread=%v unsafe=%v\n", s.Name, s.Delay, s.DropProb, s.InitSpread, s.UnsafeAdversary)
	for _, c := range s.Adversary.Corruptions {
		fmt.Fprintf(&b, "%d [%v, %v) %#v\n", c.Node, c.From, c.To,
			reflect.Indirect(reflect.ValueOf(c.Behavior)).Interface())
	}
	return b.String()
}

// TestGenerateIndependentOfOrder: a seed's draws are keyed by the seed alone,
// so it must draw the same scenario whether it comes first or after a
// hundred other seeds — no generator state carries from one seed to the next.
func TestGenerateIndependentOfOrder(t *testing.T) {
	cfg := benchmarkMix(t)
	cfg.Families = append(cfg.Families, FamilyWeight{Family: FamilyGeneric, Weight: 2},
		FamilyWeight{Family: FamilyChurn, Weight: 1, Hostile: true})
	cfg.DropProb = 0.2
	for _, seed := range []int64{7, 1 << 20, -3} {
		first := drawn(cfg.Scenario(seed))
		for other := int64(1); other <= 100; other++ {
			cfg.Scenario(seed + other)
		}
		if again := drawn(cfg.Scenario(seed)); again != first {
			t.Errorf("seed %d drew differently after 100 other seeds:\nfirst:\n%s\nafter:\n%s", seed, first, again)
		}
	}
}
