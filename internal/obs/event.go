// Package obs is the streaming-observability substrate: a bounded,
// drop-oldest pub/sub metrics bus carrying typed events from the
// training/inference hot paths to any number of subscribers — the /metrics
// snapshot endpoint, the /events SSE stream, the benchmark's traced pass and
// the tests are all just subscribers (DESIGN.md §13).
//
// The design constraints come from the engines:
//
//   - Publishing never waits on a subscriber. Bus.Emit delivers on the
//     emitting goroutine: a callback subscriber is called in place, a
//     channel subscriber gets a try-send that evicts its own oldest event
//     when the buffer is full. The bus starts no goroutine.
//   - With a bus attached but nobody subscribed, the publish cost must be
//     ~zero: one nil check plus one atomic load (the subscriber gate), no
//     lock, no allocation. TestEmitNeverAllocates pins this.
//   - Events never feed back into the training math, so a bus-enabled run is
//     bit-identical to a bus-disabled one (proven by
//     core.TestObsDoesNotPerturbTraining).
package obs

import (
	"encoding/json"
	"fmt"
)

// Kind is the event type. The zero Kind is invalid — events are always
// constructed with an explicit kind.
type Kind uint8

const (
	// KindQueueDepth reports a queue level: Stage is the pipeline stage
	// whose inbound queue is measured, or -1 for an engine- or
	// admission-level queue; Count is the depth.
	KindQueueDepth Kind = iota + 1
	// KindSampleDone reports a completed training sample: Count is the
	// engine's lifetime completed-sample counter, Value the sample's loss.
	KindSampleDone
	// KindStaleness reports one observed forward→backward update gap at a
	// stage: Stage, Count=observed delay. The free-running engine emits one
	// per backward pass (a true staleness histogram); the stepped engines
	// emit their per-stage maxima at each drain.
	KindStaleness
	// KindStageBusy reports a stage's cumulative busy time: Stage,
	// Count=busy nanoseconds since engine construction. Consumers derive
	// live per-stage utilization from deltas between observations.
	KindStageBusy
	// KindSyncClock reports the cluster's weight-sync clock: Count is the
	// number of completed sync operations.
	KindSyncClock
	// KindEngineStats is the drain-time summary every engine emits once its
	// pipeline quiesces: Value is the engine's authoritative utilization
	// measure, Count the lifetime completed-sample counter. This is how
	// Stats() flows through the bus — post-hoc consumers read the same
	// stream as live ones.
	KindEngineStats
	// KindBatch reports one coalesced serving micro-batch: Count is the
	// batch size.
	KindBatch
	// KindLatency reports one served request's admission→response latency:
	// Value in milliseconds.
	KindLatency
	// KindInferDone reports a completed inference pass: Count is the
	// engine's lifetime completed counter.
	KindInferDone
	// KindEpoch reports a completed training epoch: Count is the 1-based
	// epoch, Value the epoch's mean training loss.
	KindEpoch
	// KindFault reports one injected or survived chaos event (internal/chaos):
	// Replica/Stage locate it (-1 = not applicable), Count is the fault code
	// (chaos.FaultKind, or 0 for a membership change), Value the global sample
	// cursor at which it fired.
	KindFault
)

// kindNames is indexed by Kind; the zero entry is the invalid marker.
var kindNames = [...]string{
	"invalid",
	"queue_depth",
	"sample_done",
	"staleness",
	"stage_busy",
	"sync_clock",
	"engine_stats",
	"batch",
	"latency",
	"infer_done",
	"epoch",
	"fault",
}

// String names the kind (stable identifiers used on the wire).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind from its string name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if i > 0 && name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one typed observation. It is a flat value — no pointers, no
// heap allocation on publish — whose field meanings are documented per Kind.
// Seq is assigned by Bus.Emit under the bus lock: it is a strictly increasing
// delivery sequence shared by all subscribers, so a subscriber can detect
// its own drops by gaps (and read the count from Subscriber.Dropped).
type Event struct {
	Kind    Kind    `json:"kind"`
	Seq     uint64  `json:"seq"`
	Stage   int     `json:"stage"`
	Replica int     `json:"replica"`
	Count   int64   `json:"count"`
	Value   float64 `json:"value"`
}
