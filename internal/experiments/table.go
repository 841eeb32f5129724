// Package experiments implements the reproduction suite of EXPERIMENTS.md:
// one function per table/figure, each returning a formatted Table. Suite is
// the one list of them: cmd/benchtables regenerates it, and
// TestQuickSuiteShapes runs it in quick mode with every shape check in tier-1.
//
// The paper is an extended abstract whose "evaluation" is analytic
// (Theorem 5, Lemma 7, Claim 8) plus qualitative claims in §1.1/§3.3/§5;
// each experiment here measures one of those claims empirically. See
// DESIGN.md §4 for the experiment-to-claim mapping.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one reproduced table or figure.
type Table struct {
	ID      string // e.g. "E1"
	Title   string
	Columns []string
	Rows    [][]string
	Figure  string // optional ASCII chart
	Notes   string // expectation and interpretation
	// Checks are the experiment's machine-verified shape assertions: the
	// qualitative outcome the paper predicts (who wins, what is bounded,
	// what diverges), checked against the measured numbers.
	Checks []Check
}

// Check is one verified expectation.
type Check struct {
	Name string
	Ok   bool
}

// AddCheck records a shape assertion.
func (t *Table) AddCheck(name string, ok bool) {
	t.Checks = append(t.Checks, Check{Name: name, Ok: ok})
}

// ChecksPass reports whether every shape assertion held.
func (t *Table) ChecksPass() bool {
	for _, c := range t.Checks {
		if !c.Ok {
			return false
		}
	}
	return true
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v != v: // NaN
		return "-"
	case absf(v) >= 1e5 || absf(v) < 1e-4:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Figure != "" {
		b.WriteByte('\n')
		b.WriteString(t.Figure)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\nNote: %s\n", t.Notes)
	}
	for _, c := range t.Checks {
		status := "PASS"
		if !c.Ok {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s\n", status, c.Name)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown (figures become
// fenced code blocks, checks a task list).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			fmt.Fprintf(&b, " %s |", strings.ReplaceAll(c, "|", "\\|"))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Figure != "" {
		fmt.Fprintf(&b, "\n```\n%s```\n", t.Figure)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n> %s\n", t.Notes)
	}
	if len(t.Checks) > 0 {
		b.WriteByte('\n')
		for _, c := range t.Checks {
			mark := "x"
			if !c.Ok {
				mark = " "
			}
			fmt.Fprintf(&b, "- [%s] %s\n", mark, c.Name)
		}
	}
	return b.String()
}

// Experiment is one entry of the suite: the id `benchtables -only` takes, a
// short title known without running it (`benchtables -list`), and the
// function that regenerates the table.
type Experiment struct {
	ID    string
	Title string
	Run   func(quick bool) Table
}

// Suite is the one list of experiments: cmd/benchtables and All both walk it,
// in this order.
var Suite = []Experiment{
	{"E1", "Maximum deviation vs Theorem 5 bound", E01Deviation},
	{"E2", "Accuracy vs K = Θ/T (O(2^−K) tradeoff)", E02AccuracyTradeoff},
	{"E3", "Recovery halving trajectory (Lemma 7(iii))", E03RecoveryHalving},
	{"E4", "Recovery time vs baselines", E04RecoveryVsBaselines},
	{"E5", "Mobile adversary marathon", E05MobileAdversary},
	{"E6", "Resilience threshold n ≥ 3f+1", E06ResilienceThreshold},
	{"E7", "Two-clique counterexample (§5)", E07TwoClique},
	{"E8", "Message overhead vs broadcast protocols", E08MessageOverhead},
	{"E9", "Discontinuity (ψ) comparison", E09Discontinuity},
	{"E10", "Clock-estimation error vs k", E10EstimationError},
	{"E11", "WayOff ablation and parameter overestimation", E11WayOffAblation},
	{"E12", "Drift/delay sweep", E12DriftDelaySweep},
	{"E13", "Partial connectivity exploration (§5)", E13ConnectivitySweep},
	{"E14", "Self-stabilization probe (§5)", E14SelfStabilization},
	{"E15", "Drift-feedback extension (§5)", E15DriftCompensation},
	{"E16", "Message-loss robustness (beyond model)", E16MessageLoss},
	{"E17", "Cached estimation caveat (§3.1)", E17CachedEstimation},
	{"E18", "Proactive secret sharing end-to-end (§1)", E18ProactiveSecurity},
	{"E19", "Adversarial tightness probe for Δ", E19TightnessProbe},
	{"E20", "Temporary model violation and self-healing", E20NetworkOutage},
	{"E21", "Peer-sampled estimation scaling", E21SamplingScaling},
	{"E22", "DelaySkew family: asymmetric link delay", E22DelaySkew},
	{"E23", "ChurnBudget family: f-per-Θ boundary streams", E23ChurnBudget},
	{"E24", "FlashRecovery family: rejoin-time tails", E24FlashRejoin},
	{"E25", "ColdStart family: arbitrary initial states", E25ColdStart},
}

// All runs the full suite. quick shortens simulated durations for smoke
// tests; the shapes of the results are preserved.
func All(quick bool) []Table {
	out := make([]Table, len(Suite))
	for i, e := range Suite {
		out[i] = e.Run(quick)
	}
	return out
}

// scaled shrinks a full-length duration in quick mode.
func scaled(quick bool, full, quickVal float64) float64 {
	if quick {
		return quickVal
	}
	return full
}
