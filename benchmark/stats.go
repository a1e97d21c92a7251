package main

import (
	"math"
	"sort"
)

// tailCandidates are the quantiles a timing may be reported at, ascending.
var tailCandidates = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported quantile.
const minBeyond = 10

// rank is the nearest-rank position of quantile q among n ascending samples:
// the count of samples at or below it. The epsilon keeps products such as
// 0.9·100 = 90.00000000000001 from rounding up a rank.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// highestQuantile returns the highest candidate quantile that still has at
// least minBeyond of n samples beyond it, or 0 when not even the median
// qualifies.
func highestQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailCandidates {
		if n-rank(q, n) >= minBeyond {
			best = q
		}
	}
	return best
}

// quantileSorted is the nearest-rank quantile of an ascending slice: the
// smallest value with at least q·n samples at or below it.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(q, len(sorted)), 1), len(sorted))-1]
}

// sortedCopy returns vs ascending without touching the caller's slice.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median of vs (mean of the middle pair for even counts); 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (the gate's method): cut points at
// i·(n+1)/4, interpolated between neighbours. Needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median: the
// run-internal noise printed beside every end-to-end median. For three
// segments it is (max−min)/median.
func spread(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(med)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
