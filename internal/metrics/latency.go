package metrics

import (
	"sort"
	"sync"
)

// This file holds the serving-tier instruments: a bounded latency reservoir
// with quantile interpolation and a high-water gauge for queue depths. Both
// are concurrency-safe — the serve layer observes from handler and batcher
// goroutines while Stats() reads concurrently.

// LatencyHist records observations (any unit; the serve layer uses
// milliseconds) into a bounded ring of the most recent observations.
// Quantiles are computed over the ring; Count and Mean cover the full
// lifetime.
type LatencyHist struct {
	mu    sync.Mutex
	buf   []float64
	size  int
	next  int
	count int64
	sum   float64
}

// NewLatencyHist builds a reservoir keeping the most recent cap observations
// (default 8192 when cap <= 0).
func NewLatencyHist(capacity int) *LatencyHist {
	if capacity <= 0 {
		capacity = 8192
	}
	return &LatencyHist{buf: make([]float64, capacity)}
}

// Observe records one value.
func (h *LatencyHist) Observe(v float64) {
	h.mu.Lock()
	h.buf[h.next] = v
	h.next = (h.next + 1) % len(h.buf)
	if h.size < len(h.buf) {
		h.size++
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Mean returns the lifetime mean (0 when empty).
func (h *LatencyHist) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantiles returns the requested quantiles (each in [0,1]) over the
// retained window with linear interpolation, in the order given. It returns
// zeros when nothing has been observed.
func (h *LatencyHist) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	h.mu.Lock()
	window := append([]float64(nil), h.buf[:h.size]...)
	h.mu.Unlock()
	if len(window) == 0 {
		return out
	}
	sort.Float64s(window)
	for i, q := range qs {
		out[i] = quantileSorted(window, q)
	}
	return out
}

// quantileSorted interpolates quantile q over an ascending-sorted slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Gauge is a concurrency-safe level indicator (e.g. admission-queue depth)
// that tracks the current level and the high-water mark. Invariants: the
// level never goes negative (Dec clamps at zero) and Max is monotone
// non-decreasing over the gauge's lifetime.
type Gauge struct {
	mu       sync.Mutex
	cur, max int64
}

// Inc raises the level by one.
func (g *Gauge) Inc() {
	g.mu.Lock()
	g.cur++
	if g.cur > g.max {
		g.max = g.cur
	}
	g.mu.Unlock()
}

// Dec lowers the level by one, clamping at zero: an unmatched Dec (e.g.
// double-accounting on a shutdown path) must not drive the level negative
// and corrupt depth reporting.
func (g *Gauge) Dec() {
	g.mu.Lock()
	if g.cur > 0 {
		g.cur--
	}
	g.mu.Unlock()
}

// Level returns the current level.
func (g *Gauge) Level() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}
