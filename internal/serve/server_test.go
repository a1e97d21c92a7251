package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/train"
)

// testBuilder is the model every serve test runs: a small multi-stage MLP
// with [8] inputs and 4 classes.
func testBuilder(seed int64) *nn.Network { return models.DeepMLP(8, 12, 3, 4, seed) }

// newTestServer wires a fresh backend and serving tier; the cleanup drains
// the serving tier before closing the engine, mirroring cmd/serve.
func newTestServer(t *testing.T, cfg Config) (*Server, *train.Server) {
	t.Helper()
	backend, err := train.NewServer(testBuilder, train.ServerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = backend
	cfg.InputShape = []int{8}
	s, err := New(cfg)
	if err != nil {
		backend.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		backend.Close()
	})
	return s, backend
}

// predictBody marshals one /v1/predict request for the test input.
func predictBody(t *testing.T, in []float64) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(map[string]any{"input": in})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// testInput returns a deterministic sample.
func testInput(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]float64, 8)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	return in
}

// TestPredictMatchesOracle checks one HTTP round trip end to end: the served
// class and probabilities must equal softmax over the training forward's
// logits, exactly.
func TestPredictMatchesOracle(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := testInput(7)
	x := tensor.New(1, 8)
	copy(x.Data, in)
	logits, _ := testBuilder(1).Forward(x)
	wantProbs, wantClass := softmax(logits.Data)

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Class int       `json:"class"`
		Probs []float64 `json:"probs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Class != wantClass {
		t.Fatalf("class %d, want %d", out.Class, wantClass)
	}
	if len(out.Probs) != len(wantProbs) {
		t.Fatalf("probs len %d, want %d", len(out.Probs), len(wantProbs))
	}
	for i := range wantProbs {
		if out.Probs[i] != wantProbs[i] {
			t.Fatalf("probs[%d] = %v, want %v", i, out.Probs[i], wantProbs[i])
		}
	}
}

// TestPredictValidation pins the HTTP error surface: wrong-size inputs are
// 400s, wrong methods 405s, and a stats probe answers on GET only.
func TestPredictValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, []float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d, want 200", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedBodiesRejected sends bodies past the read caps: predict and
// swap must answer 413 without buffering them, and the same server must
// then answer a good request. The longest float64 encodings still fit. The
// oversized bodies stay within a few KiB of the caps, so the client has
// written all of each before the server answers and closes the connection.
func TestOversizedBodiesRejected(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	big, err := json.Marshal(map[string]any{"input": make([]float64, 4000)}) // ≈ 8 KiB
	if err != nil {
		t.Fatal(err)
	}
	if code := post("/v1/predict", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized predict: status %d, want 413", code)
	}
	longPath, err := json.Marshal(map[string]string{"path": string(bytes.Repeat([]byte("a"), 20<<10))})
	if err != nil {
		t.Fatal(err)
	}
	if code := post("/v1/swap", longPath); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized swap: status %d, want 413", code)
	}

	widest := make([]float64, 8)
	for i := range widest {
		widest[i] = -2.2250738585072014e-308 // the longest shortest-form float64s
	}
	b, err := json.Marshal(map[string]any{"input": widest})
	if err != nil {
		t.Fatal(err)
	}
	if code := post("/v1/predict", b); code != http.StatusOK {
		t.Fatalf("good predict after oversized bodies: status %d, want 200", code)
	}
}

// TestBatchingCoalesces floods the server with concurrent requests and
// checks the batcher actually coalesces them: far fewer forward passes than
// requests, every request answered.
func TestBatchingCoalesces(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 8, BatchWindow: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 24
	in := testInput(9)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, in))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Accepted != n || st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats %+v, want %d accepted and completed", st, n)
	}
	if st.Batches >= n {
		t.Fatalf("batcher ran %d passes for %d requests — no coalescing", st.Batches, n)
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("mean batch %v, want > 1 under concurrent load", st.MeanBatch)
	}
	if st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
		t.Fatalf("latency quantiles p50=%v p99=%v malformed", st.P50Ms, st.P99Ms)
	}
}

// TestAdmissionBounds unit-tests the bounded queue without the batcher
// racing to drain it: a full queue rejects, a draining server rejects.
func TestAdmissionBounds(t *testing.T) {
	s := &Server{
		cfg:   Config{QueueCap: 1},
		queue: make(chan *request, 1),
		depth: &metrics.Gauge{},
	}
	r := func() *request { return &request{resp: make(chan response, 1), enq: time.Now()} }
	if !s.enqueue(r()) {
		t.Fatal("first enqueue rejected on an empty queue")
	}
	if s.enqueue(r()) {
		t.Fatal("enqueue accepted beyond QueueCap")
	}
	s.draining = true
	<-s.queue
	if s.enqueue(r()) {
		t.Fatal("enqueue accepted while draining")
	}
	if got := s.accepted.Load(); got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
}

// TestDrainNoDrop is the zero-drop shutdown proof: Shutdown lands in the
// middle of a concurrent request storm, and afterwards every admitted request
// must have been answered (accepted == completed, nothing failed) while
// everything else was cleanly rejected with 503.
func TestDrainNoDrop(t *testing.T) {
	s, backend := newTestServer(t, Config{MaxBatch: 4, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	in := testInput(11)
	var wg sync.WaitGroup
	bad := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, in))
				if err != nil {
					bad <- err
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				switch code {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					return // drain reached this client
				default:
					bad <- fmt.Errorf("status %d", code)
					return
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let the storm build
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Fatalf("client saw a non-drain failure: %v", err)
	}

	st := s.Stats()
	if st.Accepted != st.Completed {
		t.Fatalf("dropped requests: accepted %d, completed %d", st.Accepted, st.Completed)
	}
	if st.Failed != 0 {
		t.Fatalf("%d requests failed during drain", st.Failed)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", st.QueueDepth)
	}
	if got := backend.Weights().InUse(); got != 1 {
		t.Fatalf("published weight set has %d references after drain, want 1", got)
	}
}

// TestSwapEndpointUnderLoad hot-swaps a checkpoint through the HTTP API while
// clients stream predictions: no request fails, the displaced weights drain,
// and post-swap predictions are bit-identical to the new weights' oracle.
func TestSwapEndpointUnderLoad(t *testing.T) {
	s, backend := newTestServer(t, Config{MaxBatch: 4, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Snapshot a differently-seeded network to a checkpoint file.
	next := testBuilder(2)
	path := filepath.Join(t.TempDir(), "next.gob")
	if err := checkpoint.Save(path, next, nil, 0, nil); err != nil {
		t.Fatal(err)
	}

	in := testInput(13)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	bad := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, in))
				if err != nil {
					bad <- err
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code != http.StatusOK && code != http.StatusServiceUnavailable {
					bad <- fmt.Errorf("status %d", code)
					return
				}
			}
		}()
	}

	displaced := backend.Weights()
	body := bytes.NewReader([]byte(fmt.Sprintf(`{"path":%q}`, path)))
	resp, err := http.Post(ts.URL+"/v1/swap", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	swapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap: status %d: %s", resp.StatusCode, swapBody)
	}
	close(stop)
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Fatalf("client failed across the swap: %v", err)
	}

	// The displaced set drains once every pinned flight completes.
	deadline := time.Now().Add(2 * time.Second)
	for displaced.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("displaced weight set still has %d references", displaced.InUse())
		}
		time.Sleep(time.Millisecond)
	}

	// Post-swap predictions must be bit-identical to the new weights.
	x := tensor.New(1, 8)
	copy(x.Data, in)
	logits, _ := next.Forward(x)
	_, wantClass := softmax(logits.Data)
	wantProbs, _ := softmax(logits.Data)
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", predictBody(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Class int       `json:"class"`
		Probs []float64 `json:"probs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Class != wantClass {
		t.Fatalf("post-swap class %d, want %d", out.Class, wantClass)
	}
	for i := range wantProbs {
		if out.Probs[i] != wantProbs[i] {
			t.Fatalf("post-swap probs[%d] = %v, want %v", i, out.Probs[i], wantProbs[i])
		}
	}
	if got := s.Stats().Infer.Swaps; got != 1 {
		t.Fatalf("engine recorded %d swaps, want 1", got)
	}

	// A bad path is a 422, not a crash, and leaves the served weights alone.
	resp, err = http.Post(ts.URL+"/v1/swap", "application/json", bytes.NewReader([]byte(`{"path":"/nonexistent.gob"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad swap path: status %d, want 422", resp.StatusCode)
	}
}

// TestRejectSetsRetryAfter pins the 503 contract: a rejected request carries
// a Retry-After header derived from the live queue depth — the backlog's
// worst-case clearing time in whole seconds, never below one.
func TestRejectSetsRetryAfter(t *testing.T) {
	s := &Server{
		cfg:    Config{QueueCap: 1, MaxBatch: 2, BatchWindow: 2 * time.Second},
		sample: 8,
		queue:  make(chan *request, 1),
		depth:  &metrics.Gauge{},
	}
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", predictBody(t, testInput(3)))
		s.handlePredict(w, req)
		return w
	}
	// Fill the queue, then pile up depth as if five requests were backed up:
	// ceil(5/2) batches × 2s window = 6s.
	if !s.enqueue(&request{resp: make(chan response, 1), enq: time.Now()}) {
		t.Fatal("first enqueue rejected")
	}
	for i := 0; i < 4; i++ {
		s.depth.Inc()
	}
	w := post()
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "6" {
		t.Fatalf("Retry-After %q, want \"6\" (5 deep, 2-deep batches, 2s window)", got)
	}
	// The floor: an empty-depth rejection (draining) still says at least 1s.
	s.draining = true
	for i := 0; i < 5; i++ {
		s.depth.Dec()
	}
	if got := post().Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\" floor", got)
	}
}
