// Package metrics supplies the measurement and reporting utilities shared by
// the experiment runners: running meters, multi-run aggregation (the paper
// reports mean±std over five runs), aligned text tables matching the paper's
// table layout, and ASCII line plots for figure series.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Meter accumulates a weighted running mean (e.g. loss over samples).
type Meter struct {
	sum, weight float64
}

// Add accumulates value with weight w.
func (m *Meter) Add(value, w float64) {
	m.sum += value * w
	m.weight += w
}

// Mean returns the weighted mean (0 for an empty meter).
func (m *Meter) Mean() float64 {
	if m.weight == 0 {
		return 0
	}
	return m.sum / m.weight
}

// MeanStd returns the sample mean and (n−1) standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, v := range xs {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(xs)-1))
	return mean, std
}

// FormatMeanStd renders mean±std in the paper's table style, e.g. "92.57±0.15".
func FormatMeanStd(xs []float64) string {
	mean, std := MeanStd(xs)
	if len(xs) < 2 {
		return fmt.Sprintf("%.2f", mean)
	}
	return fmt.Sprintf("%.2f±%.2f", mean, std)
}

// Table builds an aligned plain-text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named sequence of (x, y) points for figure output.
type Series struct {
	Name string
	X, Y []float64
}

// AsciiPlot renders one or more series as an ASCII line chart of the given
// size. Y values of ±Inf are clamped to the plot border. Distinct series use
// distinct glyphs; a legend is appended.
func AsciiPlot(series []Series, width, height int, logY bool) string {
	glyphs := "*o+x#@%&"
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	tr := func(y float64) float64 {
		if logY {
			if y <= 0 {
				return math.Inf(-1)
			}
			return math.Log10(y)
		}
		return y
	}
	for _, s := range series {
		for i := range s.X {
			x, y := s.X[i], tr(s.Y[i])
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if !math.IsInf(y, 0) && !math.IsNaN(y) {
				if y < minY {
					minY = y
				}
				if y > maxY {
					maxY = y
				}
			}
		}
	}
	if math.IsInf(minX, 0) || minX == maxX {
		maxX = minX + 1
	}
	if math.IsInf(minY, 0) || minY == maxY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			x := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			yv := tr(s.Y[i])
			if math.IsNaN(yv) {
				continue
			}
			if math.IsInf(yv, 1) {
				yv = maxY
			}
			if math.IsInf(yv, -1) {
				yv = minY
			}
			y := int((yv - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - y
			if row >= 0 && row < height && x >= 0 && x < width {
				grid[row][x] = g
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "y: [%.3g, %.3g]", minY, maxY)
	if logY {
		b.WriteString(" (log10)")
	}
	b.WriteByte('\n')
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, "x: [%.3g, %.3g]\n", minX, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// ArgMax returns the index of the largest element.
func ArgMax(xs []float64) int {
	bi := 0
	for i, v := range xs {
		if v > xs[bi] {
			bi = i
		}
	}
	return bi
}
