// Package asciiplot renders time series and bar charts as fixed-width text.
// The benchmark harness uses it to print figure-shaped output (deviation
// over time, recovery trajectories) next to the tables, so every "figure"
// experiment produces something a terminal can show.
package asciiplot

import (
	"fmt"
	"math"
	"strings"
)

// Options controls chart geometry.
type Options struct {
	Width  int // plot area columns (default 64)
	Height int // plot area rows (default 16)
	// YLabel/XLabel annotate the axes.
	YLabel, XLabel string
}

func (o Options) withDefaults() Options {
	if o.Width <= 0 {
		o.Width = 64
	}
	if o.Height <= 0 {
		o.Height = 16
	}
	return o
}

// Line renders one or more series over a shared x axis. Series are drawn
// with distinct glyphs in order: '*', '+', 'o', 'x', '#'.
func Line(xs []float64, series map[string][]float64, opts Options) string {
	opts = opts.withDefaults()
	if len(xs) == 0 || len(series) == 0 {
		return "(no data)\n"
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#'}

	// Stable series order: sorted by name.
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sortStrings(names)

	xmin, xmax := minMax(xs)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, name := range names {
		lo, hi := minMax(series[name])
		ymin = math.Min(ymin, lo)
		ymax = math.Max(ymax, hi)
	}
	if ymin == ymax {
		ymin -= 1
		ymax += 1
	}
	if xmin == xmax {
		xmax = xmin + 1
	}

	grid := make([][]byte, opts.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", opts.Width))
	}
	for si, name := range names {
		g := glyphs[si%len(glyphs)]
		ys := series[name]
		for i, x := range xs {
			if i >= len(ys) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
				continue
			}
			col := int(math.Round((x - xmin) / (xmax - xmin) * float64(opts.Width-1)))
			row := int(math.Round((ymax - ys[i]) / (ymax - ymin) * float64(opts.Height-1)))
			if col >= 0 && col < opts.Width && row >= 0 && row < opts.Height {
				grid[row][col] = g
			}
		}
	}

	var b strings.Builder
	if opts.YLabel != "" {
		fmt.Fprintf(&b, "%s\n", opts.YLabel)
	}
	for r, rowBytes := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%10.3g", ymax)
		case opts.Height - 1:
			label = fmt.Sprintf("%10.3g", ymin)
		default:
			label = strings.Repeat(" ", 10)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(rowBytes))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", opts.Width))
	fmt.Fprintf(&b, "%s  %-10.3g%s%10.3g\n", strings.Repeat(" ", 10), xmin,
		strings.Repeat(" ", maxInt(1, opts.Width-20)), xmax)
	if opts.XLabel != "" {
		fmt.Fprintf(&b, "%s  (%s)\n", strings.Repeat(" ", 10), opts.XLabel)
	}
	if len(names) > 1 {
		b.WriteString(strings.Repeat(" ", 12))
		for si, name := range names {
			fmt.Fprintf(&b, "%c=%s  ", glyphs[si%len(glyphs)], name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if math.IsInf(lo, 1) {
		return 0, 1
	}
	return lo, hi
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sparkLevels are the eight block glyphs Spark maps values onto.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Spark renders values as a one-line sparkline of block glyphs, resampled to
// width columns (width ≤ 0 keeps one column per value). Each column shows the
// maximum of its bucket, scaled so the largest value uses the tallest glyph;
// NaN/Inf values are treated as zero. The live dashboard uses it for
// histogram and deviation miniatures.
func Spark(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	clean := make([]float64, len(values))
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			v = 0
		}
		clean[i] = v
	}
	if width <= 0 || width > len(clean) {
		width = len(clean)
	}
	cols := make([]float64, width)
	for c := 0; c < width; c++ {
		lo := c * len(clean) / width
		hi := (c + 1) * len(clean) / width
		if hi <= lo {
			hi = lo + 1
		}
		m := 0.0
		for _, v := range clean[lo:hi] {
			m = math.Max(m, v)
		}
		cols[c] = m
	}
	peak := 0.0
	for _, v := range cols {
		peak = math.Max(peak, v)
	}
	var b strings.Builder
	for _, v := range cols {
		idx := 0
		if peak > 0 {
			idx = int(v / peak * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}
