package experiments

import (
	"strings"
	"testing"
)

// TestQuickSuiteShapes runs every experiment in quick mode and requires all
// machine-verified shape assertions to hold — the paper's qualitative
// predictions must survive even the shortened runs.
//
// The same tables are then compared byte for byte against
// testdata/quick.golden, which is what `benchtables -quick` prints with its
// "(E… regenerated in …)" timing lines removed: every number in the suite is
// deterministic in its fixed seeds, so a refactor of the simulator that moves
// one of them is a behaviour change to review, not noise. Regenerate
// deliberately with:
//
//	go test ./internal/experiments -run TestQuickSuiteShapes -update
func TestQuickSuiteShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still simulates tens of cluster-minutes")
	}
	var got strings.Builder
	for _, tab := range All(true) {
		tab := tab
		got.WriteString(tab.String() + "\n\n")
		t.Run(tab.ID, func(t *testing.T) {
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", tab.ID)
			}
			if len(tab.Checks) == 0 {
				t.Fatalf("%s has no shape checks", tab.ID)
			}
			for _, c := range tab.Checks {
				if !c.Ok {
					t.Errorf("%s check failed: %s\n%s", tab.ID, c.Name, tab.String())
				}
			}
		})
	}
	checkGolden(t, "quick.golden", got.String())
}

// TestExperimentDeterminism: regenerating an experiment must be
// bit-for-bit reproducible — the property EXPERIMENTS.md promises.
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full experiments")
	}
	a1, a2 := E10EstimationError(true), E10EstimationError(true)
	if a1.String() != a2.String() {
		t.Fatal("E10 output differs across identical runs")
	}
	b1, b2 := E03RecoveryHalving(true), E03RecoveryHalving(true)
	if b1.String() != b2.String() {
		t.Fatal("E3 output differs across identical runs")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Notes:   "a note",
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", 1e-9)
	tab.AddCheck("works", true)
	tab.AddCheck("broken", false)
	out := tab.String()
	for _, want := range []string{"=== EX — demo ===", "long-column", "2.5000", "1e-09",
		"Note: a note", "[PASS] works", "[FAIL] broken"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if tab.ChecksPass() {
		t.Error("ChecksPass must be false with a failing check")
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Figure:  "fig\n",
		Notes:   "note|with pipe",
	}
	tab.AddRow("x|y", 2)
	tab.AddCheck("good", true)
	tab.AddCheck("bad", false)
	out := tab.Markdown()
	for _, want := range []string{"### EX — demo", "| a | b |", "| --- | --- |",
		"x\\|y", "```\nfig\n```", "> note|with pipe", "- [x] good", "- [ ] bad"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5000",
		1e6:     "1e+06",
		-3.25:   "-3.2500",
		0.00005: "5e-05",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
