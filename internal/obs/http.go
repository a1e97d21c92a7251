package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Handler exposes a bus over HTTP:
//
//	GET /metrics  → Aggregator.Snapshot as JSON
//	GET /events   → server-sent-events stream of the live event feed
//
// The same handler serves the training CLIs (cmd/pbtrain -obs) and is
// mounted by the serving tier, so every process exposes observability the
// same way. The SSE stream subscribes per connection with a bounded buffer:
// a slow client loses its own oldest events (drop-oldest, surfaced as a
// "dropped" field on each event batch) and never backpressures an emitter.
func Handler(b *Bus, agg *Aggregator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		ServeMetrics(w, req, agg)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		ServeEvents(w, req, b)
	})
	return mux
}

// ServeMetrics answers one GET /metrics request with the aggregator's
// snapshot.
func ServeMetrics(w http.ResponseWriter, req *http.Request, agg *Aggregator) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(agg.Snapshot())
}

// ServeEvents answers one GET /events request with an SSE stream: each
// event is one `data: {json}` frame. The subscription lives exactly as long
// as the connection — client disconnect (or bus close) unsubscribes, so no
// goroutine or subscriber outlives the request handler.
func ServeEvents(w http.ResponseWriter, req *http.Request, b *Bus) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := b.Subscribe(1024)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprintf(w, ": stream open\n\n")
	flusher.Flush()
	for {
		select {
		case ev := <-sub.C():
			buf, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", buf)
			flusher.Flush()
		case <-req.Context().Done():
			return
		case <-sub.Done():
			return
		}
	}
}
