package metrics

import (
	"sync"
	"testing"
)

func TestLatencyHistQuantiles(t *testing.T) {
	h := NewLatencyHist(16)
	if qs := h.Quantiles(0.5, 0.99); qs[0] != 0 || qs[1] != 0 {
		t.Fatalf("empty hist quantiles %v, want zeros", qs)
	}
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}
	if got := h.Mean(); got != 5.5 {
		t.Fatalf("Mean = %v, want 5.5", got)
	}
	qs := h.Quantiles(0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 5.5 || qs[2] != 10 {
		t.Fatalf("Quantiles(0,0.5,1) = %v, want [1 5.5 10]", qs)
	}
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
}

// TestLatencyHistWindow checks the bounded ring: quantiles cover only the
// most recent capacity observations while Count/Mean stay lifetime-wide.
func TestLatencyHistWindow(t *testing.T) {
	h := NewLatencyHist(4)
	for i := 1; i <= 8; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	// Window holds {5,6,7,8}; the evicted early values must not show up.
	if got := h.Quantile(0); got != 5 {
		t.Fatalf("windowed min = %v, want 5", got)
	}
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("windowed max = %v, want 8", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Inc()
	if got := g.Level(); got != 2 {
		t.Fatalf("Level = %d, want 2", got)
	}
	if got := g.Max(); got != 2 {
		t.Fatalf("Max = %d, want 2", got)
	}
	g.Dec()
	g.Dec()
	if got, max := g.Level(), g.Max(); got != 0 || max != 2 {
		t.Fatalf("Level/Max = %d/%d, want 0/2", got, max)
	}
}

// TestGaugeDecClampsAtZero: an unmatched Dec must not drive the level
// negative, and a later Inc counts up from zero, not from a hidden deficit.
func TestGaugeDecClampsAtZero(t *testing.T) {
	var g Gauge
	g.Dec()
	g.Dec()
	if got := g.Level(); got != 0 {
		t.Fatalf("Level after unmatched Dec = %d, want 0", got)
	}
	g.Inc()
	if got, max := g.Level(), g.Max(); got != 1 || max != 1 {
		t.Fatalf("Level/Max after clamp+Inc = %d/%d, want 1/1", got, max)
	}
}

// TestGaugeMaxMonotonicConcurrent samples Max while goroutines interleave
// Inc/Dec: every sample must be no smaller than the previous one, and the
// final Max must cover the final level and stay within the total Inc count.
func TestGaugeMaxMonotonicConcurrent(t *testing.T) {
	var g Gauge
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var monotone sync.WaitGroup
	monotone.Add(1)
	go func() {
		defer monotone.Done()
		prev := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := g.Max()
			if m < prev {
				t.Errorf("Max went backwards: %d after %d", m, prev)
				return
			}
			prev = m
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g.Inc()
				if i%3 == 0 {
					g.Dec() // occasional unmatched Dec exercises the clamp
				}
				g.Dec()
			}
		}()
	}
	wg.Wait()
	close(stop)
	monotone.Wait()
	if lvl := g.Level(); lvl != 0 {
		t.Fatalf("final Level = %d, want 0", lvl)
	}
	if m := g.Max(); m < 1 || m > workers*iters {
		t.Fatalf("final Max = %d, want within [1, %d]", m, workers*iters)
	}
}

// TestInstrumentsConcurrent exercises both instruments from many goroutines;
// the -race run is the assertion.
func TestInstrumentsConcurrent(t *testing.T) {
	h := NewLatencyHist(64)
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.Inc()
				h.Observe(float64(w*100 + i))
				h.Quantiles(0.5, 0.99)
				g.Dec()
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != 800 {
		t.Fatalf("Count = %d, want 800", got)
	}
	if got := g.Level(); got != 0 {
		t.Fatalf("Level = %d, want 0", got)
	}
}

// Quantile returns a single quantile over the retained window.
func (h *LatencyHist) Quantile(q float64) float64 {
	return h.Quantiles(q)[0]
}
