package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/train"
)

// reqResult is one request as the load generator saw it.
type reqResult struct {
	ok        bool    // 200 with the oracle's class
	status    int     // HTTP status
	latMs     float64 // response time minus due time
	handlerMs float64 // time inside ServeHTTP
	lateMs    float64 // send time minus due time: the generator's own delay
}

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// requests per second, fully determined by seed.
func poissonSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// doRequest sends request i through the handler without a socket and times
// it from its due time.
func doRequest(h http.Handler, body []byte, want int, due time.Time, trc *tracer, i int) reqResult {
	sent := time.Now()
	id := trc.begin("serve.handler", 0, i+1)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	trc.end(id)
	done := time.Now()
	var out struct {
		Class *int `json:"class"`
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r := reqResult{status: rec.Code, latMs: ms(done.Sub(due)), handlerMs: ms(done.Sub(sent)), lateMs: ms(sent.Sub(due))}
	r.ok = rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &out) == nil && out.Class != nil && *out.Class == want
	return r
}

// openLoop sends one request per entry of due, at start+due[i], whether or
// not earlier ones have completed: every in-flight request is a parked
// goroutine, the generator is this one. It returns when all have answered.
func openLoop(start time.Time, due []time.Duration, send func(i int, due time.Time) reqResult) ([]reqResult, time.Duration) {
	res := make([]reqResult, len(due))
	var wg sync.WaitGroup
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		//lint:allow(goroutinebudget) one per in-flight request; ends when its response arrives, openLoop waits on wg before returning
		go func(i int, at time.Time) {
			defer wg.Done()
			res[i] = send(i, at)
		}(i, at)
	}
	wg.Wait()
	return res, time.Since(start)
}

// closedLoop keeps clients requests outstanding until n have been sent: each
// client sends its next request only when the previous one has answered.
func closedLoop(n, clients int, send func(i int, due time.Time) reqResult) ([]reqResult, time.Duration) {
	res := make([]reqResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//lint:allow(goroutinebudget) one per closed-loop client; exits when the request counter reaches n, closedLoop waits on wg before returning
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				res[i] = send(i, time.Now())
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// serveRig is one running server with the request pool and its oracle.
type serveRig struct {
	w       *workload
	backend *train.Server
	srv     *serve.Server
	handler http.Handler
	bodies  [][]byte
	oracle  []int
	trc     *tracer
	seed    int64 // of the arrival schedules
	n       int   // requests per segment
}

// newServeRig generates the request pool, computes the oracle classes on a
// direct-engine server of the same dtype, builds the pipelined server behind
// the HTTP tier with cmd/serve's defaults and runs a discarded warm-up.
func newServeRig(ctx context.Context, w *workload, o runOpts, bus *obs.Bus, trc *tracer) (*serveRig, error) {
	r := &serveRig{w: w, trc: trc, seed: o.seed, n: o.scaled(w.segRequests, 64)}
	rng := rand.New(rand.NewSource(o.seed))
	size := 1
	for _, d := range w.model.shape {
		size *= d
	}
	oracle, err := train.NewServer(train.Builder(w.model.build), train.ServerConfig{Engine: "direct", Seed: modelSeed, DType: w.dtype})
	if err != nil {
		return nil, fmt.Errorf("oracle server: %w", err)
	}
	defer oracle.Close()
	for i := 0; i < bodyPool; i++ {
		in := make([]float64, size)
		for j := range in {
			in[j] = rng.NormFloat64()
		}
		body, err := json.Marshal(map[string]any{"input": in})
		if err != nil {
			return nil, fmt.Errorf("request body: %w", err)
		}
		logits, err := oracle.Infer(ctx, tensor.FromSlice(in, append([]int{1}, w.model.shape...)...))
		if err != nil {
			return nil, fmt.Errorf("oracle infer: %w", err)
		}
		r.bodies = append(r.bodies, body)
		r.oracle = append(r.oracle, logits.ArgMaxRow(0))
	}
	r.backend, err = train.NewServer(train.Builder(w.model.build), train.ServerConfig{
		Engine: "pipelined", Replicas: 1, Seed: modelSeed, DType: w.dtype, Obs: bus,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	r.srv, err = serve.New(serve.Config{
		Backend: r.backend, InputShape: w.model.shape,
		MaxBatch: serveBatch, BatchWindow: 2 * time.Millisecond, QueueCap: serveQueue, Bus: bus,
	})
	if err != nil {
		r.backend.Close()
		return nil, fmt.Errorf("serve tier: %w", err)
	}
	r.handler = r.srv.Handler()
	if _, bad := r.run(-1, o.scaled(400, 32)); bad != "" {
		r.close()
		return nil, fmt.Errorf("warm-up: %s", bad)
	}
	return r, nil
}

func (r *serveRig) close() {
	// Shutdown drains the batcher; the context only bounds a wedged drain.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx) // a timeout here leaves nothing to recover: the process exits next
	r.backend.Close()
}

func (r *serveRig) send(i int, due time.Time) reqResult {
	return doRequest(r.handler, r.bodies[i%bodyPool], r.oracle[i%bodyPool], due, r.trc, i)
}

// load runs n requests of the workload's traffic shape.
func (r *serveRig) load(index, n int) ([]reqResult, time.Duration) {
	if r.w.open {
		// Each segment has its own arrival schedule, fixed by (seed, index).
		return openLoop(time.Now(), poissonSchedule(r.seed*1000003+int64(index), n, openRate), r.send)
	}
	return closedLoop(n, satClients, r.send)
}

// run loads the server with n requests and folds them into a segment; bad
// names the first failed request, if any.
func (r *serveRig) run(index, n int) (segment, string) {
	cpu0 := cpuTime()
	res, wall := r.load(index, n)
	seg := segment{attempted: n, latTotal: n, wall: wall, cpu: cpuTime() - cpu0}
	bad := ""
	for i, q := range res {
		if !q.ok {
			if bad == "" {
				bad = fmt.Sprintf("request %d: status %d or class differs from the direct-engine oracle", i, q.status)
			}
			continue
		}
		seg.ok++
		seg.lat = append(seg.lat, q.latMs)
	}
	return seg, bad
}

// segment implements rig: one full-size segment, every request checked.
func (r *serveRig) segment(_ context.Context, p *passResult, i int) (segment, error) {
	seg, bad := r.run(i, r.n)
	if bad != "" {
		p.problemf("segment %d: %s", i, bad)
	}
	return seg, nil
}

// checkStats fails the pass when the server itself counted a rejected or
// failed request.
func (r *serveRig) checkStats(p *passResult) {
	if st := r.srv.Stats(); st.Rejected+st.Failed > 0 {
		p.problemf("server rejected %d and failed %d requests", st.Rejected, st.Failed)
	}
}

// runServe runs one pass of a serve-* workload.
func runServe(ctx context.Context, w *workload, o runOpts) (*passResult, error) {
	if o.traced {
		return tracedServe(ctx, w, o)
	}
	p := &passResult{}
	rig, _, err := endToEndPass(ctx, p, o, w.sloMs, func() (*serveRig, error) { return newServeRig(ctx, w, o, nil, nil) })
	if err != nil {
		return nil, err
	}
	defer rig.close()
	rig.checkStats(p)
	return p, nil
}

// sweepRates are the fixed open-loop rates of serve.rate_within_slo.
var sweepRates = []float64{400, 800, 1600, 2400}

// tracedServe is the layer-by-layer pass of a serve-* workload: untraced
// reference segments, the same load with cmd/serve's shared bus and a span per
// request, one hot swap under that load, then replays on the idle server.
func tracedServe(ctx context.Context, w *workload, o runOpts) (*passResult, error) {
	p := &passResult{layer: map[string]float64{}}
	trc := newTracer()

	ref, err := newServeRig(ctx, w, o, nil, nil)
	if err != nil {
		return nil, err
	}
	segs := o.tracedSegments()
	var refRates []float64
	var refWall time.Duration
	for i := 0; i < segs; i++ {
		seg, _ := ref.segment(ctx, p, i)
		p.account(seg)
		refRates = append(refRates, float64(seg.ok)/seg.wall.Seconds())
		refWall = seg.wall
	}
	ref.close()

	// cmd/serve's wiring: one bus shared by the engine and the HTTP tier.
	bus := obs.NewBus()
	defer bus.Close()
	agg := obs.NewAggregator(bus)
	defer agg.Close()
	rig, err := newServeRig(ctx, w, o, bus, trc)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	dir, err := os.MkdirTemp("", "pbbench-ckpt-")
	if err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	defer os.RemoveAll(dir)
	// The saved weights are the served ones, so the swap under load below
	// must not change any answer.
	ckpt, err := checkpointMetrics(p.layer, trc, w, dir, func(path string) error {
		return checkpoint.Save(path, w.model.build(modelSeed), optim.NewMomentum(0, 0), 0, nil)
	})
	if err != nil {
		return nil, err
	}

	mem0 := memSnapshot()
	var all []reqResult
	var rates []float64
	for i := 0; i < segs; i++ {
		var swapDone chan error
		var swapTook time.Duration // written before the send on swapDone
		if i == 0 {
			swapDone = make(chan error, 1)
			//lint:allow(goroutinebudget) one hot swap under load; sends its result on swapDone, which this loop iteration receives before moving on
			go func() {
				time.Sleep(refWall / 4)
				id := trc.begin("core.swap", 0, 0)
				_, err := rig.backend.LoadCheckpoint(ckpt)
				swapTook = trc.end(id)
				swapDone <- err
			}()
		}
		res, w := rig.load(i, rig.n)
		if swapDone != nil {
			if err := <-swapDone; err != nil {
				return nil, fmt.Errorf("swap under load: %w", err)
			}
			p.layer["core.swap_ms"] = float64(swapTook) / float64(time.Millisecond)
		}
		all = append(all, res...)
		okN := 0
		for _, q := range res {
			if q.ok {
				okN++
			}
		}
		rates = append(rates, float64(okN)/w.Seconds())
	}
	okN := 0
	var lat, handler, late []float64
	for i, q := range all {
		late = append(late, q.lateMs)
		if !q.ok {
			if len(p.problems) == 0 {
				p.problemf("traced request %d: status %d or class differs from the direct-engine oracle", i, q.status)
			}
			continue
		}
		okN++
		lat, handler = append(lat, q.latMs), append(handler, q.handlerMs)
	}
	p.attempted += len(all)
	p.failed += len(all) - okN
	runtimeMetrics(p.layer, mem0, okN)
	p.layer["obs.tracing_overhead_share"] = 1 - median(rates)/median(refRates)

	st := rig.srv.Stats()
	snap := agg.Snapshot()
	lat, handler, late = sortedCopy(lat), sortedCopy(handler), sortedCopy(late)
	p.layer["serve.handler_p50_ms"] = quantileSorted(handler, 0.5)
	p.layer["serve.admit_to_resp_p50_ms"] = st.P50Ms
	p.layer["serve.codec_ms"] = quantileSorted(handler, 0.5) - st.P50Ms
	p.layer["serve.mean_batch"] = st.MeanBatch
	p.layer["serve.batches"] = float64(st.Batches)
	p.layer["serve.queue_max"] = float64(st.QueueMax)
	p.layer["serve.rejected"] = float64(st.Rejected)
	// p99 where the sample supports it (it does at full size), else the
	// highest quantile that still has ten samples beyond it.
	p.layer["serve.latency_p99_ms"] = quantileSorted(lat, min(0.99, highestQuantile(len(lat))))
	p.layer["serve.latency_max_ms"] = quantileSorted(lat, 1)
	p.layer["serve.gen_late_p95_ms"] = quantileSorted(late, 0.95)
	p.layer["obs.events"] = float64(snap.Events)
	p.layer["obs.dropped"] = float64(snap.Dropped)
	rig.checkStats(p)

	// The pipeline alone, on the now idle server.
	b1, b8, err := inferReplay(trc, func(x *tensor.Tensor) error {
		_, err := rig.backend.Infer(ctx, x)
		return err
	}, w.model.shape, o.scaled(200, 5))
	if err != nil {
		return nil, fmt.Errorf("infer replay: %w", err)
	}
	p.layer["core.infer_b1_ms"] = b1
	p.layer["core.infer_b8_ms"] = b8
	p.layer["core.infer_batch8_speedup"] = serveBatch * b1 / b8
	// Pipeline time at the observed mean batch, interpolated between the two
	// measured sizes; what is left of admit→response is queue + window wait.
	inferMs := b1 + (b8-b1)*(st.MeanBatch-1)/(serveBatch-1)
	p.layer["serve.wait_ms"] = st.P50Ms - inferMs
	p.layer["serve.window_share"] = (st.P50Ms - inferMs) / st.P50Ms

	replayKernels(trc, w.model, o.scaled(200, 5)).into(p.layer)

	// Last: the overload rates leave the server with a grown heap.
	if w.open {
		p.layer["serve.rate_within_slo"] = rig.rateWithinSLO(o)
	}
	if p.tracePath, p.traceSelf, err = trc.write(o.traceDir, w.name); err != nil {
		return nil, err
	}
	return p, nil
}

// rateWithinSLO offers each sweep rate for two (scaled) seconds and returns
// the highest one whose p95 from due time meets the workload's limit with
// every request answered and no backlog growing: the last quarter of the
// requests may not be slower than the first quarter by more than the limit.
//
// The sweep is a probe, not the workload: at overload the server answers 503
// by design, so its requests are left out of attempted and failed.
func (r *serveRig) rateWithinSLO(o runOpts) float64 {
	best := 0.0
	for ri, rate := range sweepRates {
		n := o.scaled(int(2*rate), 64)
		res, _ := openLoop(time.Now(), poissonSchedule(r.seed*1000003+int64(100+ri), n, rate), r.send)
		var lat []float64
		okN := 0
		for _, q := range res {
			if q.ok {
				okN++
			}
			lat = append(lat, q.latMs)
		}
		quarter := n / 4
		growing := mean(lat[n-quarter:])-mean(lat[:quarter]) > r.w.sloMs
		if okN == n && !growing && quantileSorted(sortedCopy(lat), 0.95) <= r.w.sloMs {
			best = rate
		}
	}
	return best
}
