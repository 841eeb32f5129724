package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clocksync/internal/campaign"
)

func TestHonestCampaignExitsClean(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-runs", "8", "-seed", "1", "-duration", "15m"}, &out)
	if err != nil {
		t.Fatalf("honest campaign failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 failing seeds") {
		t.Fatalf("summary missing clean verdict:\n%s", out.String())
	}
}

func TestMutateCampaignFailsAndWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "violations.jsonl")
	var out strings.Builder
	err := run([]string{"-runs", "8", "-seed", "1", "-mutate", "-shrink", "-jsonl", path}, &out)
	if err == nil {
		t.Fatalf("mutated campaign exited clean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shrunk to") {
		t.Fatalf("no shrink output:\n%s", out.String())
	}

	fh, ferr := os.Open(path)
	if ferr != nil {
		t.Fatalf("violations file: %v", ferr)
	}
	defer fh.Close()
	lines := 0
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		var rec struct {
			Seed      int64   `json:"seed"`
			At        float64 `json:"at"`
			Invariant string  `json:"invariant"`
			Observed  float64 `json:"observed"`
			Bound     float64 `json:"bound"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", lines+1, err)
		}
		if rec.Invariant == "" || rec.Observed <= rec.Bound {
			t.Fatalf("line %d is not a violation record: %s", lines+1, sc.Text())
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no violation records written")
	}
}

// The checker records at most 64 violations per run; what it saw beyond that
// must show in the summary, not vanish from the total. The summary's figure is
// the campaign's own total (the command's defaults are the campaign's), and
// some churn! run among the first eight overflows.
func TestDroppedViolationsInSummary(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-runs", "8", "-seed", "1", "-family", "churn!"}, &out); err == nil {
		t.Fatalf("churn! campaign exited clean:\n%s", out.String())
	}
	mix, err := campaign.ParseFamilyMix("churn!")
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(campaign.Config{Runs: 8, Seed: 1, Families: mix})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDropped == 0 {
		t.Fatal("no churn! run overflowed the per-run record cap")
	}
	want := fmt.Sprintf("violations recorded + %d dropped past the per-run record cap\n", res.TotalDropped)
	if !strings.Contains(out.String(), want) {
		t.Fatalf("summary hides the %d dropped violations:\n%s", res.TotalDropped, out.String())
	}
}

func TestBadFlagRejected(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}
