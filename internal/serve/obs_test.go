package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/train"
)

// newObsServer wires a backend and serving tier sharing one explicit bus, so
// engine events (KindInferDone, per-stage queue depth) and admission events
// (KindBatch, KindLatency) interleave on the same stream the tests read.
func newObsServer(t *testing.T, cfg Config) (*Server, *obs.Bus) {
	t.Helper()
	bus := obs.NewBus()
	backend, err := train.NewServer(testBuilder, train.ServerConfig{Seed: 1, Obs: bus})
	if err != nil {
		bus.Close()
		t.Fatal(err)
	}
	cfg.Backend = backend
	cfg.InputShape = []int{8}
	cfg.Bus = bus
	s, err := New(cfg)
	if err != nil {
		backend.Close()
		bus.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		backend.Close()
		bus.Close()
	})
	return s, bus
}

// fireRequests runs n concurrent predict requests and fails the test on any
// non-200.
func fireRequests(t *testing.T, url string, n int) {
	t.Helper()
	in := testInput(21)
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/predict", "application/json", predictBody(t, in))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("predict returned status %d, want 200", c)
		}
	}
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsSnapshotMatchesStats is the snapshot-vs-stream consistency
// check: after a request burst, the /metrics fold agrees with the serving
// tier's own Stats() counters and carries the shared engine's events.
func TestMetricsSnapshotMatchesStats(t *testing.T) {
	s, _ := newObsServer(t, Config{MaxBatch: 4, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 32
	fireRequests(t, ts.URL, n)
	st := s.Stats()

	// The batcher emits each request's events before answering it, and
	// Emit delivers on the batcher goroutine, so once the last response is
	// in the fold has every event.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Batches != st.Batches || snap.LatencyCount != st.Completed {
		t.Fatalf("snapshot batches/latency count %d/%d, Stats() %d/%d", snap.Batches, snap.LatencyCount, st.Batches, st.Completed)
	}
	if snap.MeanBatch != st.MeanBatch {
		t.Fatalf("snapshot mean batch %v, Stats() %v", snap.MeanBatch, st.MeanBatch)
	}
	if snap.InferDone != st.Infer.Completed {
		t.Fatalf("snapshot infer_done %d, engine completed %d", snap.InferDone, st.Infer.Completed)
	}
	if snap.LatencyP50 <= 0 || snap.LatencyP99 < snap.LatencyP50 {
		t.Fatalf("latency quantiles p50=%v p99=%v malformed", snap.LatencyP50, snap.LatencyP99)
	}
	post, err := http.Post(ts.URL+"/metrics", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status %d, want 405", post.StatusCode)
	}
}

// TestEventsStreamDeliversLiveEvents opens the SSE stream, drives load, and
// requires at least one well-formed event frame mid-load.
func TestEventsStreamDeliversLiveEvents(t *testing.T) {
	s, _ := newObsServer(t, Config{MaxBatch: 4, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events Content-Type %q", ct)
	}

	fireRequests(t, ts.URL, 16)

	// Read frames until a data event decodes; the first line is the
	// ": stream open" comment.
	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(5*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("undecodable SSE frame %q: %v", line, err)
		}
		if ev.Kind.String() == "invalid" {
			t.Fatalf("SSE frame carries invalid kind: %+v", ev)
		}
		return // at least one live event arrived
	}
	t.Fatalf("no SSE data frame arrived mid-load: %v", sc.Err())
}

// TestSlowSubscriberNeverBlocksBatcher pins the drop-oldest contract at the
// serving tier: a subscriber that never drains (an arbitrarily slow SSE
// client) loses its own oldest events while every request still completes.
func TestSlowSubscriberNeverBlocksBatcher(t *testing.T) {
	s, bus := newObsServer(t, Config{MaxBatch: 4, BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stuck := bus.Subscribe(1) // one-slot buffer, never read
	defer stuck.Close()

	const n = 64
	fireRequests(t, ts.URL, n) // would deadlock here if producers blocked
	st := s.Stats()
	if st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats %+v, want %d completed with a stuck subscriber", st, n)
	}
	// The load emitted well over one event; the stuck subscriber must have
	// shed the surplus rather than grow or block.
	waitUntil(t, "stuck subscriber to record drops", func() bool {
		return stuck.Dropped() > 0
	})
	if len(stuck.C()) > 1 {
		t.Fatalf("stuck subscriber buffered %d events beyond its capacity", len(stuck.C()))
	}
}

// TestEventsClientDisconnectCleanup verifies an SSE client going away
// unsubscribes: the bus's subscriber count returns to its baseline, so
// abandoned streams leak neither subscribers nor handler goroutines.
func TestEventsClientDisconnectCleanup(t *testing.T) {
	s, bus := newObsServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	baseline := bus.Subscribers() // the server's aggregator
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitUntil(t, "SSE subscription to attach", func() bool {
		return bus.Subscribers() == baseline+1
	})
	cancel()
	waitUntil(t, "SSE subscription to detach", func() bool {
		return bus.Subscribers() == baseline
	})
}

// TestOwnedBusClosesOnShutdown: with no Config.Bus the server creates its
// own; Shutdown must close it, ending any live /events stream.
func TestOwnedBusClosesOnShutdown(t *testing.T) {
	backend, err := train.NewServer(testBuilder, train.ServerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	s, err := New(Config{Backend: backend, InputShape: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.ownBus {
		t.Fatal("server did not take ownership of its implicit bus")
	}
	sub := s.bus.Subscribe(4) // stands in for a live /events stream
	defer sub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("owned bus not closed on Shutdown: subscriber still live")
	}
}
