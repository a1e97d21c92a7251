package core

import "repro/internal/obs"

// This file is the engines' observability wiring: every engine, when built
// with Config.Obs (or InferConfig.Obs), emits typed events onto the metrics
// bus — per-stage queue depth and staleness, busy-time accounting, lifetime
// completion counters, sync-policy clock — and publishes a KindEngineStats
// summary after each successful Drain, so the bus aggregator carries the
// same numbers Stats() reports and Stats() becomes one consumer of the
// engine's accounting among many.
//
// Stage goroutines and drivers all emit on the one *obs.Bus; with no bus
// configured it is nil and each emit is one inlined nil check. Events
// never feed back into the training math — a bus-enabled run is
// bit-identical to a bus-disabled one (TestObsDoesNotPerturbTraining).

// emitResults publishes one KindSampleDone per completed result. Every
// event carries the engine's lifetime completed count at emit time (the
// aggregator keeps the latest, which is monotone) and the sample's loss.
func emitResults(b *obs.Bus, completed int, rs []*Result) {
	for _, r := range rs {
		b.Emit(obs.Event{Kind: obs.KindSampleDone, Stage: -1, Count: int64(completed), Value: r.Loss})
	}
}

// emitDrainSummary publishes the engine's quiesced accounting — the same
// snapshot Stats() returns — as a KindEngineStats event. Called only with
// the pipeline quiesced (end of a successful Drain).
func emitDrainSummary(b *obs.Bus, s Stats) {
	b.Emit(obs.Event{Kind: obs.KindEngineStats, Stage: -1, Value: s.Utilization, Count: int64(s.Completed)})
}
