package campaign

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"clocksync/internal/check"
)

// go test ./internal/campaign -run TestViolationsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/violations.golden from current output")

// TestViolationsGolden pins the online checker's verdicts byte for byte:
// four small hostile campaigns — an over-budget churn, a round-starving
// delay skew, a convergence function without trimming, and victims that
// never recover — in synccampaign's -jsonl format, one line per recorded
// violation, so a change to how the checker is fed or how it measures shows
// up as a diff.
func TestViolationsGolden(t *testing.T) {
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, cfg := range []Config{
		{Families: soloMix(FamilyChurn, true)},
		{Families: soloMix(FamilyDelaySkew, true)},
		{Mutate: loosenTrimming},
		{Families: soloMix(FamilyFlash, false), Mutate: DisableVictimRecovery},
	} {
		cfg.Runs, cfg.Seed = 8, 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Failures {
			for _, v := range f.Violations {
				rec := struct {
					Seed   int64  `json:"seed"`
					Family string `json:"family,omitempty"`
					check.Violation
				}{f.Seed, f.Family, v}
				if err := enc.Encode(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	goldenPath := filepath.Join("testdata", "violations.golden")
	if *update {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("violation lines differ from golden at byte %d of %d (re-run with -update if intended)",
			diffAt(out.Bytes(), want), len(want))
	}
}
