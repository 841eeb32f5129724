package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestE24RejoinGolden pins the FlashRecovery rejoin-tail table byte-for-byte
// against testdata/e24_rejoin.golden: the flash waves, the simulator and the
// recovery measurements are all deterministic in the fixed seed, so any
// drift in these numbers is a behavior change that must be reviewed, not
// noise. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestE24RejoinGolden -update
func TestE24RejoinGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several flash-crowd runs")
	}
	tab := E24FlashRejoin(true)
	for _, c := range tab.Checks {
		if !c.Ok {
			t.Errorf("E24 check failed: %s", c.Name)
		}
	}
	checkGolden(t, "e24_rejoin.golden", tab.String())
}

// checkGolden compares got byte for byte with testdata/<name>, rewriting the
// file first under -update, and names the first line that differs.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("output drifted from %s (regenerate with -update if intended), first at line %d:\n got: %s\nwant: %s",
				path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("output drifted from %s (regenerate with -update if intended): %d lines, want %d", path, len(g), len(w))
}

// TestFamilyExperimentDeterminism: the family tables must regenerate
// bit-for-bit, the property the golden pin (and EXPERIMENTS.md) relies on.
func TestFamilyExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full experiments")
	}
	a1, a2 := E24FlashRejoin(true), E24FlashRejoin(true)
	if a1.String() != a2.String() {
		t.Fatal("E24 output differs across identical runs")
	}
	b1, b2 := E25ColdStart(true), E25ColdStart(true)
	if b1.String() != b2.String() {
		t.Fatal("E25 output differs across identical runs")
	}
}
