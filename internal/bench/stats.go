// Package bench is the measurement harness that regenerates the paper's
// evaluation: seeded workload generators, wall-clock throughput
// measurement (Equation 37), order statistics, and the text renderings
// (histograms, heatmaps, tables, CSV series) used by `benchorch exp` and
// the Go benchmarks in bench_test.go.
package bench

import (
	"fmt"
	"math"
	"strings"

	"inplace/internal/stats"
)

// The order statistics live in internal/stats so the autotuner
// (internal/tune) can share them without importing the full harness;
// these forwarders keep the historical bench API.

// Median returns the median of xs (the paper's summary statistic for
// Figures 3, 6 and 7). It returns NaN for an empty slice.
func Median(xs []float64) float64 { return stats.Median(xs) }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. NaN for empty input.
func Percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

// Mean returns the arithmetic mean of xs, NaN for empty input.
func Mean(xs []float64) float64 { return stats.Mean(xs) }

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (min, max float64) { return stats.MinMax(xs) }

// Histogram bins xs into `bins` equal-width bins over [lo, hi] and
// returns the counts. Values outside the range clamp to the end bins.
func Histogram(xs []float64, lo, hi float64, bins int) []int {
	counts := make([]int, bins)
	if bins == 0 || hi <= lo {
		return counts
	}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts
}

// RenderHistogram draws a horizontal ASCII histogram of xs with the
// median marked, in the style of the paper's Figures 3, 6 and 7.
func RenderHistogram(title string, xs []float64, lo, hi float64, bins, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d, median=%.3g, max=%.3g)\n", title, len(xs), Median(xs), Percentile(xs, 100))
	counts := Histogram(xs, lo, hi, bins)
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	med := Median(xs)
	w := (hi - lo) / float64(bins)
	for i, c := range counts {
		binLo := lo + float64(i)*w
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		marker := " "
		if !math.IsNaN(med) && med >= binLo && med < binLo+w {
			marker = "*"
		}
		fmt.Fprintf(&b, "%10.3g %s|%s%s  %d\n", binLo, marker, strings.Repeat("#", bar), strings.Repeat(" ", width-bar), c)
	}
	return b.String()
}

// RenderHeatmap draws the (m, n) performance landscape of Figures 4–5 as
// an ASCII shade grid: rows are m (top = small), columns are n, shading
// by throughput relative to the grid's range.
func RenderHeatmap(title string, ms, ns []int, grid [][]float64) string {
	shades := []byte(" .:-=+*#%@")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range grid {
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (%.3g .. %.3g GB/s; shade ' '=slowest '@'=fastest)\n", title, lo, hi)
	fmt.Fprintf(&b, "%8s ", "m \\ n")
	for _, n := range ns {
		fmt.Fprintf(&b, "%5d", n)
	}
	b.WriteByte('\n')
	for i, m := range ms {
		fmt.Fprintf(&b, "%8d ", m)
		for j := range ns {
			v := grid[i][j]
			s := 0
			if hi > lo {
				s = int((v - lo) / (hi - lo) * float64(len(shades)-1))
			}
			if s < 0 {
				s = 0
			}
			if s >= len(shades) {
				s = len(shades) - 1
			}
			b.WriteString(fmt.Sprintf("    %c", shades[s]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Row is one labeled measurement in a summary table.
type Row struct {
	Label string
	Value float64
	Unit  string
}

// RenderTable formats rows in the style of the paper's Tables 1 and 2.
func RenderTable(title string, rows []Row) string {
	var b strings.Builder
	width := len(title)
	for _, r := range rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s  %s\n", width, title, "")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", width+16))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %10.3f %s\n", width, r.Label, r.Value, r.Unit)
	}
	return b.String()
}

// CSV renders a simple comma-separated table with a header. Commas
// inside column names (the Figure 3 method labels) would desync the
// header from the float rows, so they are rewritten to semicolons — the
// emitted text stays parseable by any naive comma splitter.
func CSV(header []string, rows [][]float64) string {
	var b strings.Builder
	for i, h := range header {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strings.ReplaceAll(h, ",", ";"))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
