package campaign

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"clocksync/internal/check"
	"clocksync/internal/network"
	"clocksync/internal/simtime"
)

// allFamilies lists the honest named families (generic excluded: it is the
// pre-family default and covered by campaign_test.go).
var allFamilies = []Family{FamilyDelaySkew, FamilyChurn, FamilyFlash, FamilyColdStart}

func soloMix(fam Family, hostile bool) FamilyMix {
	return FamilyMix{{Family: fam, Weight: 1, Hostile: hostile}}
}

func TestParseFamilyMix(t *testing.T) {
	valid := []struct {
		spec string
		want string // canonical String() rendering
	}{
		{"delayskew", "delayskew"},
		{"generic", "generic"},
		{"delayskew:2,churn,flash,coldstart", "delayskew:2,churn,flash,coldstart"},
		{"churn!", "churn!"},
		{"delayskew!:3", "delayskew!:3"},
		{" churn , flash ", "churn,flash"},
		{"churn,churn!", "churn,churn!"}, // distinct canonical names
	}
	for _, tc := range valid {
		mix, err := ParseFamilyMix(tc.spec)
		if err != nil {
			t.Errorf("ParseFamilyMix(%q): %v", tc.spec, err)
			continue
		}
		if got := mix.String(); got != tc.want {
			t.Errorf("ParseFamilyMix(%q).String() = %q, want %q", tc.spec, got, tc.want)
		}
		// The canonical rendering must parse back to the identical mix.
		again, err := ParseFamilyMix(mix.String())
		if err != nil {
			t.Errorf("round-trip of %q: %v", tc.spec, err)
		} else if !reflect.DeepEqual(mix, again) {
			t.Errorf("round-trip of %q: %+v vs %+v", tc.spec, mix, again)
		}
	}

	invalid := []string{
		"",
		"   ",
		"bogus",
		"flash!",     // no hostile variant
		"coldstart!", // no hostile variant
		"generic!",   // no hostile variant
		"churn:0",
		"churn:-2",
		"churn:x",
		"churn:",
		"churn,churn", // duplicate
		",",
		"churn,,flash",
		"delayskew:2:3",
	}
	for _, spec := range invalid {
		mix, err := ParseFamilyMix(spec)
		if err == nil {
			t.Errorf("ParseFamilyMix(%q) accepted as %+v", spec, mix)
		}
	}
}

// Every honest family must expand every seed into a scenario whose schedule
// is valid under Definition 2 and whose delay model keeps its declared δ —
// the same by-construction promises the generic generator makes.
func TestFamilyScenariosValid(t *testing.T) {
	for _, fam := range allFamilies {
		cfg := Config{Families: soloMix(fam, false)}.withDefaults()
		for seed := int64(0); seed < 80; seed++ {
			s := cfg.Scenario(seed)
			if want := "campaign/" + string(fam); s.Name != want {
				t.Fatalf("%s seed %d: scenario named %q, want %q", fam, seed, s.Name, want)
			}
			if err := s.Adversary.Validate(cfg.N, cfg.F, cfg.Theta); err != nil {
				t.Fatalf("%s seed %d: schedule invalid: %v", fam, seed, err)
			}
			if b := s.Delay.Bound(); b > cfg.Delta {
				t.Fatalf("%s seed %d: delay bound %v exceeds δ=%v", fam, seed, b, cfg.Delta)
			}
			switch fam {
			case FamilyDelaySkew, FamilyColdStart:
				if len(s.Adversary.Corruptions) != 0 {
					t.Fatalf("%s seed %d: unexpected corruptions %d", fam, seed, len(s.Adversary.Corruptions))
				}
			case FamilyChurn:
				// The stream must be long enough to pin the budget boundary:
				// fewer than f+1 break-ins never fill a Θ-window.
				if got := len(s.Adversary.Corruptions); got <= cfg.F {
					t.Fatalf("churn seed %d: only %d corruptions", seed, got)
				}
			case FamilyFlash:
				got := len(s.Adversary.Corruptions)
				if got < 2*cfg.F || got%cfg.F != 0 {
					t.Fatalf("flash seed %d: %d corruptions, want ≥ 2 full waves of f=%d", seed, got, cfg.F)
				}
			}
			if fam == FamilyColdStart && s.InitSpread < simtime.Second {
				t.Fatalf("coldstart seed %d: spread %v below the arbitrary-state floor", seed, s.InitSpread)
			}
		}
	}
}

// Hostile variants must be shaped exactly as advertised: churn! is over
// budget (invalid, forced through via UnsafeAdversary), delayskew! lies
// about its δ bound while actually delivering σ·δ.
func TestHostileFamilyShapes(t *testing.T) {
	churnCfg := Config{Families: soloMix(FamilyChurn, true)}.withDefaults()
	for seed := int64(0); seed < 40; seed++ {
		s := churnCfg.Scenario(seed)
		if !s.UnsafeAdversary {
			t.Fatalf("churn! seed %d: UnsafeAdversary not set", seed)
		}
		if got := len(s.Adversary.Corruptions); got != churnCfg.F+1 {
			t.Fatalf("churn! seed %d: %d corruptions, want f+1=%d", seed, got, churnCfg.F+1)
		}
		if err := s.Adversary.Validate(churnCfg.N, churnCfg.F, churnCfg.Theta); err == nil {
			t.Fatalf("churn! seed %d: over-budget schedule passed Validate", seed)
		}
	}

	skewCfg := Config{Families: soloMix(FamilyDelaySkew, true)}.withDefaults()
	for seed := int64(0); seed < 40; seed++ {
		s := skewCfg.Scenario(seed)
		model, ok := s.Delay.(network.SkewedDelay)
		if !ok {
			t.Fatalf("delayskew! seed %d: delay model %T", seed, s.Delay)
		}
		if model.Declared != skewCfg.Delta || model.Bound() != skewCfg.Delta {
			t.Fatalf("delayskew! seed %d: declared bound %v, want the lie δ=%v", seed, model.Bound(), skewCfg.Delta)
		}
		if model.Slow <= skewCfg.Delta {
			t.Fatalf("delayskew! seed %d: Slow %v not beyond δ=%v", seed, model.Slow, skewCfg.Delta)
		}
		// The visibility smash is in budget: the checker, not the validator,
		// must be what catches this family.
		if err := s.Adversary.Validate(skewCfg.N, skewCfg.F, skewCfg.Theta); err != nil {
			t.Fatalf("delayskew! seed %d: smash schedule invalid: %v", seed, err)
		}
	}
}

// Replay contract: the family picked for a seed inside a weighted mix, run
// as a single-family campaign, reproduces the identical scenario — the
// `-runs 1 -seed N -family <fam>` line printed with every failure works.
func TestFamilyMixReplay(t *testing.T) {
	mix, err := ParseFamilyMix("delayskew:2,churn,flash,coldstart,churn!")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Families: mix}.withDefaults()
	picked := map[string]int{}
	for seed := int64(0); seed < 60; seed++ {
		fw := cfg.pickFamily(seed)
		picked[fw.String()]++
		mixed := cfg.Scenario(seed)
		solo := cfg
		solo.Families = soloMix(fw.Family, fw.Hostile)
		replay := solo.Scenario(seed)
		if mixed.Name != replay.Name ||
			!reflect.DeepEqual(mixed.Adversary, replay.Adversary) ||
			!reflect.DeepEqual(mixed.Delay, replay.Delay) ||
			mixed.InitSpread != replay.InitSpread ||
			mixed.DropProb != replay.DropProb {
			t.Fatalf("seed %d family %s: single-family replay differs from mixed draw", seed, fw)
		}
		again := cfg.Scenario(seed)
		if !reflect.DeepEqual(mixed.Adversary, again.Adversary) ||
			!reflect.DeepEqual(mixed.Delay, again.Delay) {
			t.Fatalf("seed %d: family scenario not deterministic", seed)
		}
	}
	// Every entry of the mix must actually be drawn over 60 seeds.
	for _, w := range mix {
		if picked[w.String()] == 0 {
			t.Errorf("family %s never picked across 60 seeds", w)
		}
	}
}

// Run rejects an invalid mix up front instead of running a zero-value family.
func TestRunRejectsInvalidMix(t *testing.T) {
	_, err := Run(Config{Runs: 1, Families: FamilyMix{{Family: "bogus", Weight: 1}}})
	if err == nil {
		t.Fatal("campaign with an unknown family started")
	}
}

// Run refuses a loss rate outside [0, 1], and NaN, before it draws a run.
func TestRunRefusesBadDropProb(t *testing.T) {
	for _, p := range []float64{math.NaN(), -0.5, 1.5} {
		if _, err := Run(Config{Runs: 1, DropProb: p}); err == nil || !strings.Contains(err.Error(), "DropProb") {
			t.Errorf("DropProb %v: got %v, want an error naming DropProb", p, err)
		}
	}
}

// The acceptance bar for the honest families: every run of every family is
// clean under the Theorem 5 checker. Full mode runs the issue's 250 seeds per
// family; -short keeps a 50-seed smoke.
func TestHonestFamiliesClean(t *testing.T) {
	runs := 250
	if testing.Short() {
		runs = 50
	}
	for _, fam := range allFamilies {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			res, err := Run(Config{Runs: runs, Seed: 1, Families: soloMix(fam, false)})
			if err != nil {
				t.Fatalf("campaign error: %v", err)
			}
			if res.Completed != runs {
				t.Fatalf("completed %d of %d runs", res.Completed, runs)
			}
			if len(res.PerFamily) != 1 || res.PerFamily[0].Runs != runs {
				t.Fatalf("per-family accounting %+v, want all %d runs under %s", res.PerFamily, runs, fam)
			}
			for _, f := range res.Failures {
				t.Errorf("seed %d: %d violations on the honest %s family; first: %s",
					f.Seed, len(f.Violations), fam, f.Violations[0])
			}
		})
	}
}

// churn! — f+1 simultaneous consistent liars — must be flagged on every
// seed, attributed to the family, and shrink to a reproducer that still
// needs more than f corruptions (fewer would be inside the budget the
// protocol tolerates).
func TestChurnOverBudgetFlagged(t *testing.T) {
	cfg := Config{Runs: 6, Seed: 1, Families: soloMix(FamilyChurn, true)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if len(res.Failures) != cfg.Runs {
		t.Fatalf("%d of %d churn! runs flagged; the checker missed over-budget lying", len(res.Failures), cfg.Runs)
	}
	for _, f := range res.Failures {
		if f.Family != "churn!" {
			t.Fatalf("seed %d attributed to family %q, want churn!", f.Seed, f.Family)
		}
	}
	fail := res.Failures[0]
	full := Config{Families: soloMix(FamilyChurn, true)}.withDefaults()
	sr := full.Shrink(fail.Seed, fail.Schedule, 0)
	if len(sr.Violations) == 0 {
		t.Fatalf("shrinker did not reproduce seed %d within %d runs", fail.Seed, sr.Runs)
	}
	if got := len(sr.Schedule.Corruptions); got <= full.F {
		t.Fatalf("shrunk reproducer has %d ≤ f=%d corruptions — an in-budget schedule cannot beat the protocol",
			got, full.F)
	}
}

// delayskew! — out-of-δ starvation — must be flagged on every seed, with the
// Lemma 7(iii) recovery checkpoints among the evidence: the starved victim's
// clock distance cannot halve when every round trip exceeds its timeout.
func TestDelaySkewHostileFlagged(t *testing.T) {
	cfg := Config{Runs: 6, Seed: 1, Families: soloMix(FamilyDelaySkew, true)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if len(res.Failures) != cfg.Runs {
		t.Fatalf("%d of %d delayskew! runs flagged; out-of-δ skew went unnoticed", len(res.Failures), cfg.Runs)
	}
	recovery := 0
	for _, f := range res.Failures {
		if f.Family != "delayskew!" {
			t.Fatalf("seed %d attributed to family %q, want delayskew!", f.Seed, f.Family)
		}
		for _, v := range f.Violations {
			if v.Invariant == check.InvariantRecovery {
				recovery++
			}
		}
	}
	if recovery == 0 {
		t.Fatal("no recovery violations across the delayskew! failures")
	}
}

// The Lemma 7(iii) teeth check (mutation testing the checker through the
// FlashRecovery family): with victims' halving disabled, every flash run
// must report recovery violations. Honest flash runs are clean
// (TestHonestFamiliesClean), so any silence here means the recovery
// invariant lost its teeth.
func TestFlashRecoveryMutationCaught(t *testing.T) {
	cfg := Config{
		Runs:     6,
		Seed:     1,
		Families: soloMix(FamilyFlash, false),
		Mutate:   DisableVictimRecovery,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if len(res.Failures) != cfg.Runs {
		t.Fatalf("%d of %d mutated flash runs flagged; recovery checking has no teeth", len(res.Failures), cfg.Runs)
	}
	for _, f := range res.Failures {
		sawRecovery := false
		for _, v := range f.Violations {
			if v.Invariant == check.InvariantRecovery {
				sawRecovery = true
				break
			}
		}
		if !sawRecovery {
			t.Errorf("seed %d: mutated flash run failed without a recovery violation", f.Seed)
		}
	}
}
