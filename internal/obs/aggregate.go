package obs

import (
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Aggregator folds the event stream into a queryable rolling state — the
// one code path behind the /metrics snapshot (cmd/serve, cmd/pbtrain -obs),
// the benchmark's bus counters, and the snapshot-vs-stream consistency
// tests. Served latency folds into a metrics.LatencyHist, the serve tier's
// own reservoir type, so both report one quantile rule. It is a
// callback subscriber (SubscribeFunc): Emit folds each event in on the
// emitting goroutine, so the aggregator needs no goroutine of its own,
// never loses an event to a bounded buffer, and a Snapshot taken after an
// emitter returns already holds that emitter's events. Call Snapshot to
// read; call it periodically for live rates.
type Aggregator struct {
	sub *Subscriber

	mu sync.Mutex
	// lifetime fold state
	events    uint64
	started   time.Time
	stages    map[int]*stageAgg
	staleness map[int64]int64
	completed int64
	lastLoss  float64
	syncClock int64
	engUtil   float64
	engStats  bool
	queue     int64 // stage -1 (engine/admission) queue depth
	queueMax  int64
	batches   int64
	batchSum  int64
	inferDone int64
	epoch     int64
	faults    int64
	latency   *metrics.LatencyHist
	// previous-snapshot anchors for windowed rates
	prevAt        time.Time
	prevCompleted int64
}

type stageAgg struct {
	queueDepth int64
	staleness  int64 // max observed
	busyNs     int64 // cumulative
	prevBusyNs int64 // at the previous snapshot, for windowed utilization
}

// NewAggregator attaches an aggregator to the bus as a callback
// subscriber; every delivered event folds into its state.
func NewAggregator(b *Bus) *Aggregator {
	a := &Aggregator{
		started:   time.Now(),
		prevAt:    time.Now(),
		stages:    map[int]*stageAgg{},
		staleness: map[int64]int64{},
		latency:   metrics.NewLatencyHist(2048),
	}
	a.sub = b.SubscribeFunc(a.ingest)
	return a
}

// ingest is the fold Emit calls: one mutex acquisition per event and no
// blocking operation, since it runs on the emitting goroutine.
func (a *Aggregator) ingest(ev Event) {
	a.mu.Lock()
	a.fold(ev)
	a.mu.Unlock()
}

// Close detaches the aggregator from its bus.
func (a *Aggregator) Close() { a.sub.Close() }

// fold applies one event to the rolling state. Caller holds a.mu.
func (a *Aggregator) fold(ev Event) {
	a.events++
	switch ev.Kind {
	case KindQueueDepth:
		if ev.Stage < 0 {
			a.queue = ev.Count
			if ev.Count > a.queueMax {
				a.queueMax = ev.Count
			}
		} else {
			a.stage(ev.Stage).queueDepth = ev.Count
		}
	case KindSampleDone:
		a.completed = ev.Count
		a.lastLoss = ev.Value
	case KindStaleness:
		a.staleness[ev.Count]++
		if st := a.stage(ev.Stage); ev.Count > st.staleness {
			st.staleness = ev.Count
		}
	case KindStageBusy:
		a.stage(ev.Stage).busyNs = ev.Count
	case KindSyncClock:
		a.syncClock = ev.Count
	case KindEngineStats:
		a.engUtil = ev.Value
		a.engStats = true
		if ev.Count > a.completed {
			a.completed = ev.Count
		}
	case KindBatch:
		a.batches++
		a.batchSum += ev.Count
	case KindLatency:
		a.latency.Observe(ev.Value)
	case KindInferDone:
		a.inferDone = ev.Count
	case KindEpoch:
		a.epoch = ev.Count
	case KindFault:
		a.faults++
	}
}

func (a *Aggregator) stage(i int) *stageAgg {
	st := a.stages[i]
	if st == nil {
		st = &stageAgg{}
		a.stages[i] = st
	}
	return st
}

// StageSnapshot is one pipeline stage's folded state.
type StageSnapshot struct {
	Stage      int   `json:"stage"`
	QueueDepth int64 `json:"queue_depth"`
	Staleness  int64 `json:"staleness"`
	BusyNs     int64 `json:"busy_ns"`
	// Utilization is the stage's busy-time share of the wall time since the
	// previous Snapshot call (0 on the first call or when the stage emits no
	// busy accounting).
	Utilization float64 `json:"utilization"`
}

// HistBucket is one staleness-histogram bucket.
type HistBucket struct {
	Delay int64 `json:"delay"`
	Count int64 `json:"count"`
}

// Snapshot is the point-in-time view /metrics serves. Field order is fixed
// and slices are sorted, so the JSON encoding is deterministic for a given
// state.
type Snapshot struct {
	// Events counts folded events. Dropped counts events this aggregator
	// lost in delivery: always 0, since a callback subscriber never drops
	// (kept for JSON-schema stability).
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped"`
	// Completed is the engine's lifetime completed-sample count; LastLoss
	// the most recent sample's training loss.
	Completed int64   `json:"completed"`
	LastLoss  float64 `json:"last_loss"`
	// SamplesPerSec is the completion rate over the window since the
	// previous Snapshot call; LifetimeRate averages since the aggregator
	// attached.
	SamplesPerSec float64 `json:"samples_per_sec"`
	LifetimeRate  float64 `json:"lifetime_rate"`
	// Stages is the per-stage state, sorted by stage index.
	Stages []StageSnapshot `json:"stages,omitempty"`
	// StalenessHist is the observed forward→backward gap histogram, sorted
	// by delay.
	StalenessHist []HistBucket `json:"staleness_hist,omitempty"`
	// SyncClock is the cluster's completed weight-sync count.
	SyncClock int64 `json:"sync_clock"`
	// EngineUtilization is the engine's own drain-time utilization measure
	// (KindEngineStats); HasEngineStats reports whether a drain summary has
	// arrived yet.
	EngineUtilization float64 `json:"engine_utilization"`
	HasEngineStats    bool    `json:"has_engine_stats"`
	// QueueDepth/QueueMax track the engine- or admission-level queue
	// (events with Stage = -1).
	QueueDepth int64 `json:"queue_depth"`
	QueueMax   int64 `json:"queue_max"`
	// Batches/MeanBatch summarize serving micro-batch coalescing.
	Batches   int64   `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
	// Latency quantiles (ms) over the retained window.
	LatencyCount int64   `json:"latency_count"`
	LatencyP50   float64 `json:"latency_p50_ms"`
	LatencyP99   float64 `json:"latency_p99_ms"`
	// InferDone is the inference engine's lifetime completed counter.
	InferDone int64 `json:"infer_done"`
	// Epoch is the last completed training epoch.
	Epoch int64 `json:"epoch"`
	// Faults counts injected/survived chaos events (KindFault).
	Faults int64 `json:"faults"`
}

// Snapshot returns the current folded view (Emit folds events in as they
// are published). Rates are computed over the window since the
// previous call.
func (a *Aggregator) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapshotLocked()
}

func (a *Aggregator) snapshotLocked() Snapshot {
	now := time.Now()
	qs := a.latency.Quantiles(0.5, 0.99)
	s := Snapshot{
		Events:            a.events,
		Dropped:           a.sub.Dropped(),
		Completed:         a.completed,
		LastLoss:          a.lastLoss,
		SyncClock:         a.syncClock,
		EngineUtilization: a.engUtil,
		HasEngineStats:    a.engStats,
		QueueDepth:        a.queue,
		QueueMax:          a.queueMax,
		Batches:           a.batches,
		InferDone:         a.inferDone,
		Epoch:             a.epoch,
		Faults:            a.faults,
		LatencyCount:      a.latency.Count(),
		LatencyP50:        qs[0],
		LatencyP99:        qs[1],
	}
	if a.batches > 0 {
		s.MeanBatch = float64(a.batchSum) / float64(a.batches)
	}
	if life := now.Sub(a.started).Seconds(); life > 0 {
		s.LifetimeRate = float64(a.completed) / life
	}
	window := now.Sub(a.prevAt).Seconds()
	if window > 0 {
		s.SamplesPerSec = float64(a.completed-a.prevCompleted) / window
	}
	idxs := make([]int, 0, len(a.stages))
	for i := range a.stages {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		st := a.stages[i]
		ss := StageSnapshot{Stage: i, QueueDepth: st.queueDepth, Staleness: st.staleness, BusyNs: st.busyNs}
		if window > 0 && st.busyNs > st.prevBusyNs {
			ss.Utilization = float64(st.busyNs-st.prevBusyNs) / 1e9 / window
		}
		st.prevBusyNs = st.busyNs
		s.Stages = append(s.Stages, ss)
	}
	delays := make([]int64, 0, len(a.staleness))
	for d := range a.staleness {
		delays = append(delays, d)
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	for _, d := range delays {
		s.StalenessHist = append(s.StalenessHist, HistBucket{Delay: d, Count: a.staleness[d]})
	}
	a.prevAt = now
	a.prevCompleted = a.completed
	return s
}
