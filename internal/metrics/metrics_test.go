package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeter(t *testing.T) {
	var m Meter
	if m.Mean() != 0 {
		t.Fatal("empty meter mean must be 0")
	}
	m.Add(2, 1)
	m.Add(4, 3)
	if math.Abs(m.Mean()-3.5) > 1e-12 {
		t.Fatalf("meter mean %v, want 3.5", m.Mean())
	}
	m.Reset()
	if m.Mean() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-12 {
		t.Fatalf("mean %v", mean)
	}
	// Sample std with n-1: sqrt(32/7).
	if math.Abs(std-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("std %v", std)
	}
	m1, s1 := MeanStd([]float64{3})
	if m1 != 3 || s1 != 0 {
		t.Fatal("single-element stats")
	}
	m0, s0 := MeanStd(nil)
	if m0 != 0 || s0 != 0 {
		t.Fatal("empty stats")
	}
}

// Property: std is invariant under shifts, scales linearly.
func TestMeanStdInvarianceProperty(t *testing.T) {
	f := func(a, b, c, shift float64) bool {
		for _, v := range []float64{a, b, c, shift} {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true // avoid overflow in the squared deviations
			}
		}
		_, s1 := MeanStd([]float64{a, b, c})
		_, s2 := MeanStd([]float64{a + shift, b + shift, c + shift})
		return math.Abs(s1-s2) < 1e-6*(1+math.Abs(s1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatMeanStd(t *testing.T) {
	s := FormatMeanStd([]float64{92.5, 92.7})
	if !strings.Contains(s, "±") {
		t.Fatalf("missing ±: %q", s)
	}
	s1 := FormatMeanStd([]float64{92.5})
	if strings.Contains(s1, "±") {
		t.Fatalf("single run must not show std: %q", s1)
	}
}

func TestTableAlignment(t *testing.T) {
	tab := NewTable("NETWORK", "SGDM", "PB")
	tab.AddRow("RN20", 90.63, 90.44)
	tab.AddRow("VGG11longname", "91.16±0.19", "90.83±0.20")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines: %d\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "NETWORK") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[3], "VGG11longname") {
		t.Fatalf("row: %q", lines[3])
	}
}

func TestAsciiPlotBasics(t *testing.T) {
	s := []Series{
		{Name: "a", X: []float64{0, 1, 2, 3}, Y: []float64{1, 2, 3, 4}},
		{Name: "b", X: []float64{0, 1, 2, 3}, Y: []float64{4, 3, 2, 1}},
	}
	out := AsciiPlot(s, 20, 8, false)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("plot missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatal("plot missing legend")
	}
}

func TestAsciiPlotLogAndInf(t *testing.T) {
	s := []Series{{Name: "h", X: []float64{1, 2, 3}, Y: []float64{10, math.Inf(1), 1000}}}
	out := AsciiPlot(s, 10, 5, true)
	if !strings.Contains(out, "log10") {
		t.Fatal("log marker missing")
	}
}

func TestArgMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if ArgMax(xs) != 4 {
		t.Fatal("argmax")
	}
	if Median(xs) != 3 {
		t.Fatalf("median %v", Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
}

// Reset clears the meter.
func (m *Meter) Reset() { m.sum, m.weight = 0, 0 }

// Median returns the median of xs (average of middle two for even length).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
