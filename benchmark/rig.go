package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// runOpts configures one pass (untraced or traced) over one workload.
type runOpts struct {
	seed     int64
	seconds  float64 // measuring budget of the pass
	scale    float64 // work per segment relative to the reference sizes
	setups   int     // set-ups timed per pass; setup_s is their median
	traced   bool
	traceDir string // where the traced pass writes trace-<workload>.json
}

// scaleFor sizes segments so at least three reference-size (≈1 s) segments
// fit the measuring budget; budgets of 4 s and more run full-size segments.
func scaleFor(seconds float64) float64 {
	return math.Min(1, seconds/4)
}

// tracedSegments is how many segments each stage of a traced pass runs (the
// reference, the traced workload, the harness-driven engine), so that the
// whole pass takes about the measuring budget.
func (o runOpts) tracedSegments() int { return max(1, int(o.seconds/4)) }

// scaled applies the work scale to a reference count, never below floor.
func (o runOpts) scaled(n, floor int) int {
	return max(floor, int(math.Round(float64(n)*o.scale)))
}

// segment is the outcome of one timed segment of fixed work.
type segment struct {
	attempted int
	ok        int // operations that completed and passed their output check
	wall      time.Duration
	cpu       time.Duration
	lat       []float64 // ms, one per latency sample of an ok operation
	latTotal  int       // latency samples the segment should have produced
	heapMB    float64
	loss      float64 // train-*: mean training loss over the segment
}

// passResult is what one pass over one workload reports.
type passResult struct {
	attempted, failed int
	problems          []string             // failed output checks
	segments          map[string][]float64 // untraced: per-segment value of each end-to-end metric
	layer             map[string]float64   // traced: per-layer metrics
	checksum          string               // train-*: FNV-64 of the per-epoch loss bits
	tracePath         string
	traceSelf         []selfRow // traced: self time per span name
}

func (p *passResult) problemf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// account adds a segment's operation counts to the pass.
func (p *passResult) account(s segment) {
	p.attempted += s.attempted
	p.failed += s.attempted - s.ok
}

// checkTail fails the pass when a full-size segment has too few latency
// samples to report a p95 (ten beyond it). Scaled-down runs measure nothing
// and are exempt.
func (p *passResult) checkTail(segs []segment, o runOpts) {
	for i, s := range segs {
		if o.scale >= 1 && highestQuantile(len(s.lat)) < 0.95 {
			p.problemf("segment %d has %d latency samples, too few for a p95", i, len(s.lat))
		}
	}
}

// endToEndOf folds timed segments and set-up times into the per-segment
// series of every end-to-end metric.
func endToEndOf(segs []segment, setups []float64, sloMs float64) map[string][]float64 {
	out := map[string][]float64{"setup_s": setups}
	for _, s := range segs {
		lat := sortedCopy(s.lat)
		within := 0
		for _, v := range lat {
			if v <= sloMs {
				within++
			}
		}
		add := func(name string, v float64) { out[name] = append(out[name], v) }
		add("throughput_per_s", float64(s.ok)/s.wall.Seconds())
		add("latency_p50_ms", quantileSorted(lat, 0.5))
		add("latency_p95_ms", quantileSorted(lat, 0.95))
		// A failed or refused operation produced no latency sample and so
		// misses the limit: the share is over samples due, not samples seen.
		add("slo_ok_share", float64(within)/float64(max(1, s.latTotal)))
		add("cpu_ms_per_op", s.cpu.Seconds()*1e3/float64(max(1, s.ok)))
	}
	// One reading, after the third segment, which every run has: where the
	// heap grows with operations served, readings compare only at a fixed
	// operation count.
	out["live_heap_mb"] = []float64{segs[2].heapMB}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is HeapAlloc after a forced collection: what the quiesced
// engine or server keeps alive (weights, arenas, stashes, data).
func liveHeapMB() float64 {
	// Twice: sync.Pool contents (encoder buffers, an earlier workload's
	// leftovers in suite mode) survive one collection in the victim cache.
	runtime.GC()
	runtime.GC()
	return float64(memSnapshot().HeapAlloc) / (1 << 20)
}

func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// runtimeMetrics writes the runtime.* per-layer rows: allocator and collector
// activity since the before snapshot, over ops operations.
func runtimeMetrics(layer map[string]float64, before runtime.MemStats, ops int) {
	after, n := memSnapshot(), float64(max(1, ops))
	layer["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	layer["runtime.alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layer["runtime.gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	layer["runtime.goroutines"] = float64(runtime.NumGoroutine())
}

// rig is a set-up workload: something that runs timed segments until closed.
type rig interface {
	// segment runs timed segment number i and applies its output checks.
	segment(ctx context.Context, p *passResult, i int) (segment, error)
	close()
}

// endToEndPass is the untraced pass of any workload: set up o.setups times
// (setup_s is the median; only the last rig is kept), then run checked
// segments until the measuring budget is used, reading the live heap after
// each one.
func endToEndPass[R rig](ctx context.Context, p *passResult, o runOpts, sloMs float64, build func() (R, error)) (R, []segment, error) {
	var r R
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = build(); err != nil {
			return r, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var segs []segment
	began := time.Now()
	for last := time.Duration(0); moreSegments(len(segs), began, last, o.seconds); {
		seg, err := r.segment(ctx, p, len(segs))
		if err != nil {
			r.close()
			return r, nil, fmt.Errorf("segment %d: %w", len(segs), err)
		}
		seg.heapMB = liveHeapMB()
		p.account(seg)
		segs = append(segs, seg)
		last = seg.wall
	}
	p.checkTail(segs, o)
	p.segments = endToEndOf(segs, setups, sloMs)
	return r, segs, nil
}

// moreSegments reports whether another segment of about the last one's
// length still fits the measuring budget. Three segments always run.
func moreSegments(done int, began time.Time, last time.Duration, seconds float64) bool {
	if done < 3 {
		return true
	}
	return time.Since(began)+last <= time.Duration(seconds*float64(time.Second))
}
