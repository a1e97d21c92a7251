package train_test

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/train"
)

// TestWithObserverStreamsTraining drives a short Fit with a bus attached and
// checks the facade's side of the contract: the engine's events reach an
// aggregator, the drain summary matches the Report, and the Trainer stamps a
// KindEpoch event per epoch.
func TestWithObserverStreamsTraining(t *testing.T) {
	trainSet, testSet, build := blobTask()
	bus := obs.NewBus()
	defer bus.Close()
	agg := obs.NewAggregator(bus)
	defer agg.Close()

	tr := train.New(build, train.WithEngine("lockstep"), train.WithSeed(5), train.WithObserver(bus))
	defer tr.Close()
	rep, err := tr.Fit(context.Background(), trainSet, testSet, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Emit delivers on the emitting goroutine, so Fit's events are folded
	// by the time it returns.
	snap := agg.Snapshot()
	if !snap.HasEngineStats {
		t.Fatal("no drain summary reached the aggregator")
	}
	if snap.Epoch != 2 {
		t.Fatalf("aggregator epoch = %d, want 2", snap.Epoch)
	}
	if snap.Completed != int64(rep.Samples) {
		t.Fatalf("aggregator completed = %d, Report.Samples = %d", snap.Completed, rep.Samples)
	}
	if snap.EngineUtilization != rep.Utilization {
		t.Fatalf("aggregator utilization = %v, Report.Utilization = %v", snap.EngineUtilization, rep.Utilization)
	}
	if len(snap.StalenessHist) == 0 {
		t.Fatal("no staleness events reached the aggregator")
	}
}

// TestWithObserverBitIdentical: attaching a bus through the facade must not
// change the trained weights (the facade-level restatement of
// core.TestObsDoesNotPerturbTraining).
func TestWithObserverBitIdentical(t *testing.T) {
	trainSet, testSet, build := blobTask()
	run := func(opts ...train.Option) [][]float64 {
		opts = append([]train.Option{train.WithEngine("lockstep"), train.WithSeed(9)}, opts...)
		tr := train.New(build, opts...)
		defer tr.Close()
		if _, err := tr.Fit(context.Background(), trainSet, testSet, 2); err != nil {
			t.Fatal(err)
		}
		return tr.Network().SnapshotWeights()
	}
	plain := run()
	bus := obs.NewBus()
	defer bus.Close()
	sub := bus.Subscribe(16) // shallow on purpose: drops must not matter
	defer sub.Close()
	observed := run(train.WithObserver(bus))
	if !sameWeights(plain, observed) {
		t.Fatal("weights differ with a bus attached through the facade")
	}
}
