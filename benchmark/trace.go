package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded only by this
// package, around its own calls into the repo; Trace groups the spans of one
// sample or request, Parent is the span that caused this one (0 = root).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer records
// nothing, so untraced passes pay one nil check per site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, StartNs: now, ID: id, Parent: parent, Trace: trace})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfRow is one span name's share of a trace.
type selfRow struct {
	name        string
	calls       int64
	selfNs, sum int64 // self time and total duration over all calls
}

// selfByName sums calls, duration and self time per span name, largest self
// time first: where the traced pass's wall clock went, layer by layer.
func selfByName(spans []span) []selfRow {
	self := selfTimes(spans)
	byName := map[string]*selfRow{}
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			byName[s.Name] = r
		}
		r.calls++
		r.selfNs += self[s.ID]
		r.sum += s.EndNs - s.StartNs
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].selfNs != rows[j].selfNs {
			return rows[i].selfNs > rows[j].selfNs
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// write stores the spans as one JSON array at dir/trace-<workload>.json and
// returns the path with the per-name summary.
func (t *tracer) write(dir, workload string) (string, []selfRow, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", nil, fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", nil, fmt.Errorf("write trace: %w", err)
	}
	return path, selfByName(t.spans), nil
}
