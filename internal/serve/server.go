// Package serve is the HTTP serving tier over the forward-only inference
// facade (train.Server): a bounded admission queue, deadline-aware dynamic
// micro-batching, hot checkpoint swap, and graceful zero-drop drain
// (DESIGN.md §12).
//
// Requests are admitted one sample at a time; a single batcher goroutine
// coalesces whatever is queued — up to MaxBatch samples or until the oldest
// request's deadline budget (arrival + BatchWindow) expires — into one
// [B, ...] tensor, so one forward pass (and one tensor.Parallel kernel
// fan-out) amortizes across B requests. Under light load the window expires
// with a single sample (latency-bound); under heavy load batches fill before
// the deadline (throughput-bound). Every request is answered exactly once:
// shutdown stops admission first, then flushes the queue, so draining never
// drops an in-flight request.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/train"
)

// Config configures a Server.
type Config struct {
	// Backend is the inference facade requests run through.
	Backend *train.Server
	// InputShape is the per-sample activation shape (e.g. [3,8,8]).
	InputShape []int
	// MaxBatch caps how many queued requests coalesce into one forward
	// pass (default 8).
	MaxBatch int
	// BatchWindow is each request's deadline budget: a batch is dispatched
	// when it fills or when the oldest queued request has waited this long
	// (default 2ms).
	BatchWindow time.Duration
	// QueueCap bounds the admission queue; requests beyond it are rejected
	// with 503 rather than queued without bound (default 64).
	QueueCap int
	// Bus is the metrics bus the batcher publishes to (micro-batch sizes,
	// request latencies, admission-queue depth) and the /metrics + /events
	// endpoints read from. Nil makes the server create and own one — pass a
	// bus explicitly to share it with the inference engine
	// (train.ServerConfig.Obs) so engine and admission events interleave on
	// one stream.
	Bus *obs.Bus
}

// request is one admitted sample waiting for a batch slot.
type request struct {
	x    []float64
	resp chan response
	enq  time.Time
}

// response answers one request (exactly one is delivered per admitted
// request, even during drain).
type response struct {
	class int
	probs []float64
	err   error
}

// Stats is the serving-tier counter snapshot surfaced at /v1/stats.
type Stats struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Batches   int64 `json:"batches"`
	// MeanBatch is the mean coalesced batch size — the batching policy's
	// effectiveness at the observed load.
	MeanBatch float64 `json:"mean_batch"`
	// QueueDepth/QueueMax are the admission queue's current level and
	// high-water mark.
	QueueDepth int64 `json:"queue_depth"`
	QueueMax   int64 `json:"queue_max"`
	// P50Ms/P99Ms/MeanMs summarize per-request latency (admission to
	// response) over the retained window.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// Infer is the backing engine's counter snapshot.
	Infer core.InferStats `json:"infer"`
}

// Server is the HTTP serving tier.
type Server struct {
	cfg    Config
	sample int // flattened per-sample size

	queue chan *request
	quit  chan struct{}
	wg    sync.WaitGroup

	// admitMu fences admission against drain: Shutdown takes the write
	// lock to flip draining, which guarantees no enqueue is still in
	// flight when the batcher starts its final flush.
	admitMu  sync.RWMutex
	draining bool
	shutOnce sync.Once
	busOnce  sync.Once

	// bus carries the serving tier's event stream; ownBus records whether
	// Shutdown must close it. agg folds the stream for /metrics.
	bus    *obs.Bus
	ownBus bool
	agg    *obs.Aggregator

	latency      *metrics.LatencyHist
	depth        *metrics.Gauge
	accepted     atomic.Int64
	rejected     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	batches      atomic.Int64
	batchSamples atomic.Int64
}

// New validates cfg, applies defaults, and starts the batcher.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("serve: nil Backend")
	}
	if len(cfg.InputShape) == 0 {
		return nil, errors.New("serve: empty InputShape")
	}
	sample := 1
	for _, d := range cfg.InputShape {
		if d <= 0 {
			return nil, fmt.Errorf("serve: bad InputShape %v", cfg.InputShape)
		}
		sample *= d
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = 2 * time.Millisecond
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	s := &Server{
		cfg:     cfg,
		sample:  sample,
		queue:   make(chan *request, cfg.QueueCap),
		quit:    make(chan struct{}),
		latency: metrics.NewLatencyHist(0),
		depth:   &metrics.Gauge{},
	}
	s.bus = cfg.Bus
	if s.bus == nil {
		s.bus = obs.NewBus()
		s.ownBus = true
	}
	s.agg = obs.NewAggregator(s.bus)
	s.wg.Add(1)
	go s.batchLoop()
	return s, nil
}

// enqueue admits one request, reporting false when draining or the queue is
// full. Holding the read lock across the send means Shutdown's write lock
// cannot be acquired while any admission is mid-flight — the drain flush is
// guaranteed to see every admitted request.
func (s *Server) enqueue(r *request) bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return false
	}
	// The level rises before the send: once r is queued the batcher may
	// answer it, and its Dec must find this Inc already counted (the gauge
	// clamps at zero, so a Dec that ran first would be lost).
	s.depth.Inc()
	select {
	case s.queue <- r:
		s.accepted.Add(1)
		return true
	default:
		s.depth.Dec()
		return false
	}
}

// batchLoop is the single consumer of the admission queue: it coalesces
// requests into deadline-bounded batches and answers each one.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	batch := make([]*request, 0, s.cfg.MaxBatch)
	for {
		select {
		case r := <-s.queue:
			batch = append(batch[:0], r)
			s.fill(&batch)
			s.runBatch(batch)
		case <-s.quit:
			// Drain: admission is already fenced off, so the queue can
			// only shrink. Flush every remaining request, then exit.
			for {
				batch = batch[:0]
				for len(batch) < s.cfg.MaxBatch {
					select {
					case r := <-s.queue:
						batch = append(batch, r)
					default:
						goto flushed
					}
				}
			flushed:
				if len(batch) == 0 {
					return
				}
				s.runBatch(batch)
			}
		}
	}
}

// fill coalesces queued requests into batch until it holds MaxBatch samples
// or the oldest request's deadline budget expires. During shutdown the
// window is cut short — the drain loop flushes whatever remains.
func (s *Server) fill(batch *[]*request) {
	if len(*batch) >= s.cfg.MaxBatch {
		return
	}
	d := s.cfg.BatchWindow - time.Since((*batch)[0].enq)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	for len(*batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.queue:
			*batch = append(*batch, r)
		case <-t.C:
			return
		case <-s.quit:
			return
		}
	}
}

// runBatch packs the batch into one [B, ...] tensor, runs a single forward
// pass, and answers every request. Responses go to buffered channels, so an
// abandoned client never blocks the batcher.
func (s *Server) runBatch(batch []*request) {
	s.batches.Add(1)
	s.batchSamples.Add(int64(len(batch)))
	s.bus.Emit(obs.Event{Kind: obs.KindBatch, Stage: -1, Count: int64(len(batch))})
	s.bus.Emit(obs.Event{Kind: obs.KindQueueDepth, Stage: -1, Count: s.depth.Level()})
	shape := append([]int{len(batch)}, s.cfg.InputShape...)
	x := tensor.New(shape...)
	for i, r := range batch {
		copy(x.Data[i*s.sample:(i+1)*s.sample], r.x)
	}
	y, err := s.cfg.Backend.Infer(context.Background(), x)
	if err != nil {
		for _, r := range batch {
			s.answer(r, response{err: err})
		}
		return
	}
	k := y.Shape[len(y.Shape)-1]
	logits := y.Data
	if y.DType() != tensor.F64 {
		// f32 backends return logits at the serving dtype; widen once per
		// batch for the f64 softmax/argmax below.
		logits = y.Float64s(make([]float64, 0, y.Size()))
	}
	for i, r := range batch {
		row := logits[i*k : (i+1)*k]
		probs, class := softmax(row)
		s.answer(r, response{class: class, probs: probs})
	}
}

// answer settles the request's counters, then delivers exactly one
// response, so a client holding its response already sees itself counted in
// Stats.
func (s *Server) answer(r *request, resp response) {
	s.depth.Dec()
	if resp.err != nil {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
		ms := float64(time.Since(r.enq)) / float64(time.Millisecond)
		s.latency.Observe(ms)
		s.bus.Emit(obs.Event{Kind: obs.KindLatency, Stage: -1, Value: ms})
	}
	r.resp <- resp
}

// softmax returns the row's probabilities and argmax, numerically stable.
func softmax(row []float64) ([]float64, int) {
	maxV, class := row[0], 0
	for i, v := range row {
		if v > maxV {
			maxV, class = v, i
		}
	}
	probs := make([]float64, len(row))
	sum := 0.0
	for i, v := range row {
		probs[i] = math.Exp(v - maxV)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs, class
}

// Shutdown gracefully drains the server: stop admitting, flush the queue,
// answer everything in flight, then return. It does not close the backend —
// the owner does that once Shutdown returns (so a forward pass still
// running completes). Idempotent; ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.admitMu.Lock()
		s.draining = true
		s.admitMu.Unlock()
		close(s.quit)
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// The batcher has exited, so its emits are done: detach the
		// aggregator and, when this server owns the bus, close it (ending
		// any live /events streams). A shared bus stays open for its owner.
		s.busOnce.Do(func() {
			s.agg.Close()
			if s.ownBus {
				s.bus.Close()
			}
		})
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the serving-tier counters.
func (s *Server) Stats() Stats {
	qs := s.latency.Quantiles(0.5, 0.99)
	st := Stats{
		Accepted:   s.accepted.Load(),
		Rejected:   s.rejected.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		Batches:    s.batches.Load(),
		QueueDepth: s.depth.Level(),
		QueueMax:   s.depth.Max(),
		P50Ms:      qs[0],
		P99Ms:      qs[1],
		MeanMs:     s.latency.Mean(),
		Infer:      s.cfg.Backend.Stats(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(s.batchSamples.Load()) / float64(st.Batches)
	}
	return st
}

// Handler returns the HTTP API:
//
//	POST /v1/predict  {"input":[...]}   → {"class":c,"probs":[...]}
//	POST /v1/swap     {"path":"ck.gob"} → {"swapped":true,...}
//	GET  /v1/stats                      → Stats
//	GET  /metrics     → obs.Snapshot (the bus aggregator's fold)
//	GET  /events      → live SSE stream of the bus (drop-oldest per client)
//	GET  /healthz     → ok
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/swap", s.handleSwap)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		obs.ServeMetrics(w, req, s.agg)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		obs.ServeEvents(w, req, s.bus)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Request bodies are read through http.MaxBytesReader, so a hostile client
// cannot make a handler buffer an unbounded body. A predict body may spend
// predictBytesPerValue bytes on each input value (more than any float64
// encoding needs) plus predictBodySlack; a swap body names one path.
const (
	predictBytesPerValue = 64
	predictBodySlack     = 4 << 10
	maxSwapBody          = 16 << 10
)

// bodyStatus maps a body-decoding error to its status: 413 for an oversized
// body, 400 otherwise.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handlePredict(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var in struct {
		Input []float64 `json:"input"`
	}
	body := http.MaxBytesReader(w, req.Body, int64(predictBytesPerValue*s.sample+predictBodySlack))
	if err := json.NewDecoder(body).Decode(&in); err != nil {
		http.Error(w, "bad request: "+err.Error(), bodyStatus(err))
		return
	}
	if len(in.Input) != s.sample {
		http.Error(w, fmt.Sprintf("input has %d values, want %d (shape %v)", len(in.Input), s.sample, s.cfg.InputShape), http.StatusBadRequest)
		return
	}
	r := &request{x: in.Input, resp: make(chan response, 1), enq: time.Now()}
	if !s.enqueue(r) {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		http.Error(w, "overloaded: admission queue full or draining", http.StatusServiceUnavailable)
		return
	}
	select {
	case resp := <-r.resp:
		if resp.err != nil {
			http.Error(w, "inference failed: "+resp.err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"class": resp.class, "probs": resp.probs})
	case <-req.Context().Done():
		// The client is gone; the batcher still answers into the buffered
		// channel, so nothing wedges and the request counts as completed.
	}
}

// retryAfterSeconds estimates when a rejected client should retry: the
// current queue depth takes about depth/MaxBatch batches to clear, each at
// worst one BatchWindow apart, rounded up to whole seconds (the header's
// unit) with a floor of 1 so clients never busy-retry. A drain-time
// rejection uses the same estimate — the queue it reports is the backlog
// the flush still has to answer.
func (s *Server) retryAfterSeconds() int {
	depth := s.depth.Level()
	batches := (depth + int64(s.cfg.MaxBatch) - 1) / int64(s.cfg.MaxBatch)
	secs := int(math.Ceil(time.Duration(batches * int64(s.cfg.BatchWindow)).Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleSwap(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var in struct {
		Path string `json:"path"`
	}
	body := http.MaxBytesReader(w, req.Body, maxSwapBody)
	if err := json.NewDecoder(body).Decode(&in); err != nil || in.Path == "" {
		http.Error(w, "bad request: want {\"path\":...}", bodyStatus(err))
		return
	}
	old, err := s.cfg.Backend.LoadCheckpoint(in.Path)
	if err != nil {
		http.Error(w, "swap failed: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, map[string]any{"swapped": true, "displaced_refs": old.InUse()})
}

func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.Stats())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
