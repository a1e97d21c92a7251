package train

import (
	"time"

	"repro/internal/core"
)

// SampleEvent is streamed to OnSampleDone callbacks for every completed
// training sample, in completion order. For the deterministic engines
// ("seq" and "lockstep") the event sequence is identical run to run and
// across those engines; the free-running "async" engine completes samples
// in ID order too, but interleaves them differently against submissions.
type SampleEvent struct {
	// Epoch is the 1-based epoch (counted over the Trainer's lifetime).
	Epoch int
	// ID is the engine-assigned sample sequence number.
	ID int
	// Loss and Correct are the sample's training loss and top-1 hit.
	Loss    float64
	Correct bool
	// Completed counts samples completed over the Trainer's lifetime,
	// including this one.
	Completed int
}

// EpochEvent is delivered to OnEpochEnd callbacks after each epoch's drain.
type EpochEvent struct {
	// Epoch is the 1-based epoch (counted over the Trainer's lifetime).
	Epoch int
	// TrainLoss and TrainAcc are the epoch's mean training loss/accuracy.
	TrainLoss, TrainAcc float64
	// ValLoss and ValAcc hold the test-set evaluation; HasVal reports
	// whether one ran (a nil or empty test set skips it).
	ValLoss, ValAcc float64
	HasVal          bool
	// Stats is the engine's post-drain snapshot (zero value in SGDM mode).
	Stats core.Stats
	// Elapsed is the wall time spent training this epoch (excluding
	// evaluation and callbacks).
	Elapsed time.Duration
}

// CheckpointEvent is delivered to OnCheckpoint callbacks after a periodic
// snapshot has been written.
type CheckpointEvent struct {
	// Epoch is the 1-based epoch (Trainer lifetime) the snapshot captured.
	Epoch int
	// Path is the snapshot file.
	Path string
}

// Report summarizes one Fit call.
type Report struct {
	// Stages is the trained pipeline's depth.
	Stages int
	// Epochs and Samples count what this Fit completed.
	Epochs  int
	Samples int
	// Curve is the per-epoch validation accuracy (empty without a test set).
	Curve []float64
	// TrainLoss and TrainAcc are the last epoch's training means.
	TrainLoss, TrainAcc float64
	// ValLoss and ValAcc are the final validation metrics (zero without a
	// test set).
	ValLoss, ValAcc float64
	// Utilization is the engine's utilization measure after the final
	// drain; ObservedDelays and MaxStaleness report the measured per-stage
	// gradient staleness against the analytic bound D_s = 2(S−1−s). All
	// zero in SGDM mode (no pipeline).
	Utilization    float64
	ObservedDelays []int
	MaxStaleness   int
	// TrainDuration is the wall time spent inside the training loop
	// (excluding evaluation and callbacks).
	TrainDuration time.Duration
	// Replicas is the pipeline replica count (0 unless WithReplicas built a
	// cluster engine); Syncs is the cluster's completed weight-sync count.
	Replicas int
	Syncs    int
}
