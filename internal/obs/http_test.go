package obs

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestServeMetricsSnapshot(t *testing.T) {
	b := NewBus()
	defer b.Close()
	agg := NewAggregator(b)
	defer agg.Close()
	p := b.Producer(64)
	p.Emit(Event{Kind: KindSampleDone, Count: 42, Value: 0.5})
	p.Emit(Event{Kind: KindQueueDepth, Stage: -1, Count: 3})
	// Let the pump fan out before snapshotting.
	waitFor(t, func() bool { return agg.Snapshot().Completed == 42 })

	srv := httptest.NewServer(Handler(b, agg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Completed != 42 || snap.LastLoss != 0.5 || snap.QueueDepth != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}

	post, err := http.Post(srv.URL+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d", post.StatusCode)
	}
}

func TestServeEventsStream(t *testing.T) {
	b := NewBus()
	defer b.Close()
	agg := NewAggregator(b)
	defer agg.Close()
	srv := httptest.NewServer(Handler(b, agg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// The SSE subscriber is attached once the open comment arrives.
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("expected open comment, got %q (err %v)", line, err)
	}

	p := b.Producer(64)
	p.Emit(Event{Kind: KindLatency, Value: 1.5})
	var ev Event
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		break
	}
	if ev.Kind != KindLatency || ev.Value != 1.5 {
		t.Fatalf("streamed event = %+v", ev)
	}

	// Disconnect unsubscribes: the handler's subscription must not leak.
	resp.Body.Close()
	waitFor(t, func() bool { return b.Subscribers() == 1 }) // only the aggregator remains
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAggregatorRatesAndHistogram(t *testing.T) {
	b := NewBus()
	defer b.Close()
	agg := NewAggregator(b)
	defer agg.Close()
	p := b.Producer(256)
	for i := 1; i <= 100; i++ {
		p.Emit(Event{Kind: KindSampleDone, Count: int64(i), Value: float64(i)})
	}
	p.Emit(Event{Kind: KindStaleness, Stage: 0, Count: 2})
	p.Emit(Event{Kind: KindStaleness, Stage: 0, Count: 2})
	p.Emit(Event{Kind: KindStaleness, Stage: 1, Count: 4})
	p.Emit(Event{Kind: KindBatch, Count: 8})
	p.Emit(Event{Kind: KindBatch, Count: 4})
	p.Emit(Event{Kind: KindLatency, Value: 10})
	p.Emit(Event{Kind: KindEngineStats, Value: 0.75, Count: 100})
	waitFor(t, func() bool { return agg.Snapshot().HasEngineStats })
	s := agg.Snapshot()
	if s.Completed != 100 || s.LastLoss != 100 {
		t.Fatalf("completed/loss = %d/%v", s.Completed, s.LastLoss)
	}
	if s.EngineUtilization != 0.75 {
		t.Fatalf("engine utilization = %v", s.EngineUtilization)
	}
	if s.MeanBatch != 6 {
		t.Fatalf("mean batch = %v", s.MeanBatch)
	}
	if s.LatencyCount != 1 || s.LatencyP50 != 10 {
		t.Fatalf("latency = %+v", s)
	}
	want := []HistBucket{{Delay: 2, Count: 2}, {Delay: 4, Count: 1}}
	if len(s.StalenessHist) != len(want) {
		t.Fatalf("staleness hist = %+v", s.StalenessHist)
	}
	for i, hb := range want {
		if s.StalenessHist[i] != hb {
			t.Fatalf("staleness bucket %d = %+v, want %+v", i, s.StalenessHist[i], hb)
		}
	}
	if len(s.Stages) != 2 || s.Stages[0].Stage != 0 || s.Stages[1].Stage != 4-3 {
		t.Fatalf("stages = %+v", s.Stages)
	}
}

// TestAggregatorLatencyWindow pins the /metrics latency fields past the
// 2048-sample window: the count stays lifetime-wide and the quantiles
// cover only the retained window, exactly as a metrics.LatencyHist of that
// size reports them.
func TestAggregatorLatencyWindow(t *testing.T) {
	b := NewBus()
	defer b.Close()
	agg := NewAggregator(b)
	defer agg.Close()
	p := b.Producer(4096) // holds all 3000 events even if the pump never ran
	want := metrics.NewLatencyHist(2048)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		// The evicted first 952 values sit above every retained one, so a
		// window that kept them would move both quantiles.
		v := rng.Float64()
		if i < 3000-2048 {
			v += 10
		}
		p.Emit(Event{Kind: KindLatency, Value: v})
		want.Observe(v)
	}
	waitFor(t, func() bool { return agg.Snapshot().LatencyCount == 3000 })
	s := agg.Snapshot()
	qs := want.Quantiles(0.5, 0.99)
	if s.LatencyP50 != qs[0] || s.LatencyP99 != qs[1] {
		t.Fatalf("p50/p99 = %v/%v, want %v/%v", s.LatencyP50, s.LatencyP99, qs[0], qs[1])
	}
}
