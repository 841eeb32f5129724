package asciiplot

import (
	"math"
	"strings"
	"testing"
)

func TestLineBasic(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	out := Line(xs, map[string][]float64{"dev": {0, 1, 2, 1, 0}}, Options{Width: 20, Height: 5})
	if !strings.Contains(out, "*") {
		t.Fatalf("no points plotted:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 7 {
		t.Fatalf("too few rows: %d", len(lines))
	}
	// Y extremes labeled.
	if !strings.Contains(out, "2") || !strings.Contains(out, "0") {
		t.Fatalf("axis labels missing:\n%s", out)
	}
}

func TestLineMultipleSeriesLegend(t *testing.T) {
	xs := []float64{0, 1, 2}
	out := Line(xs, map[string][]float64{
		"alpha": {0, 1, 2},
		"beta":  {2, 1, 0},
	}, Options{Width: 20, Height: 5})
	if !strings.Contains(out, "*=alpha") || !strings.Contains(out, "+=beta") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

func TestLineLabels(t *testing.T) {
	out := Line([]float64{0, 1}, map[string][]float64{"s": {0, 1}},
		Options{YLabel: "seconds", XLabel: "time"})
	if !strings.Contains(out, "seconds") || !strings.Contains(out, "(time)") {
		t.Fatalf("labels missing:\n%s", out)
	}
}

func TestLineDegenerateInputs(t *testing.T) {
	if out := Line(nil, nil, Options{}); !strings.Contains(out, "no data") {
		t.Fatal("empty input not handled")
	}
	// Constant series and single x value must not divide by zero.
	out := Line([]float64{5}, map[string][]float64{"c": {3}}, Options{Width: 10, Height: 4})
	if !strings.Contains(out, "*") {
		t.Fatalf("constant plot broken:\n%s", out)
	}
	// NaN/Inf points are skipped, not plotted.
	out = Line([]float64{0, 1, 2}, map[string][]float64{"n": {math.NaN(), 1, math.Inf(1)}},
		Options{Width: 10, Height: 4})
	if strings.Count(out, "*") != 1 {
		t.Fatalf("NaN/Inf handling broken:\n%s", out)
	}
}
