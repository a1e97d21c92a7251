package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	obspkg "repro/internal/obs"
)

// Runner executes one compiled scenario end to end against a real cluster:
// it feeds the deterministic epoch permutations through core.Cluster, fires
// the schedule's membership changes and checkpoint saves at their sample
// cursors, and — when a crash fault fires — abandons the live cluster,
// re-founds it and restores the last good checkpoint, recomputing the lost
// samples. The runner spawns no goroutines of its own; all concurrency lives
// inside the engines it drives.
type Runner struct {
	Spec Spec
	// Build constructs one replica network from a seed (the train.Builder
	// shape). Replicas are weight-identical clones of Build(Spec.Seed).
	Build func(seed int64) *nn.Network
	// Data is the training set; Spec.Samples per epoch are drawn from it.
	Data *data.Dataset
	// Bus, when non-nil, receives the cluster's driver events plus the
	// runner's KindFault emissions.
	Bus *obspkg.Bus
	// Dir is the checkpoint directory (required when Spec.CheckpointEvery
	// > 0); the scenario writes <Dir>/<Name>.ckpt.
	Dir string
}

// Report summarizes one scenario run.
type Report struct {
	Name string
	// Replicas is the final replica count; Samples the distinct sample
	// submissions of the nominal run (Epochs × Samples); Recomputed the extra
	// submissions replayed after crash recoveries (the recovery cost).
	Replicas   int
	Samples    int
	Recomputed int
	// Crashes/Removed/Joined/Checkpoints/FailedSaves count the executed
	// schedule operations (membership operations replayed during recovery
	// are counted again — they really ran twice).
	Crashes     int
	Removed     int
	Joined      int
	Checkpoints int
	FailedSaves int
	// FinalLoss/Accuracy are the last epoch's training mean loss and
	// accuracy, keyed by sample ID so crash replays overwrite rather than
	// double-count.
	FinalLoss float64
	Accuracy  float64
	// Utilization/MaxStaleness/AdmitDeferred/Syncs snapshot the final
	// cluster's engine accounting (post-recovery cluster only, for runs that
	// crashed).
	Utilization   float64
	MaxStaleness  int
	AdmitDeferred int
	Syncs         int
	// ExactChecked reports whether an uninterrupted twin was run;
	// RecoveredExact whether the recovered run's final canonical weights are
	// bit-identical to the twin's (RunVerified).
	ExactChecked   bool
	RecoveredExact bool
	// FinalWeights snapshots the canonical replica's final weights for
	// bit-exactness comparisons.
	FinalWeights [][]float64
}

// DeterministicEngine reports whether an engine selector's weight trajectory
// is schedule-deterministic — the precondition for bit-exact recovery proofs.
// "seq" (the default) and "lockstep" are; the free-running "async" engine
// reorders updates under real concurrency, so its recovery is correct but
// not bit-reproducible.
func DeterministicEngine(engine string) bool {
	switch engine {
	case "", "seq", "lockstep":
		return true
	}
	return false
}

// Run executes the scenario. The returned error reflects harness failures
// (bad spec, unrecoverable crash, cancelled ctx) — injected faults the
// scenario survives are not errors.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sched, err := Compile(r.Spec)
	if err != nil {
		return nil, err
	}
	spec := sched.Spec()
	if r.Build == nil || r.Data == nil {
		return nil, fmt.Errorf("chaos: %s: Runner needs Build and Data", spec.Name)
	}
	if spec.Samples > r.Data.Len() {
		return nil, fmt.Errorf("chaos: %s: %d samples per epoch exceed the dataset's %d", spec.Name, spec.Samples, r.Data.Len())
	}
	if spec.CheckpointEvery > 0 && r.Dir == "" {
		return nil, fmt.Errorf("chaos: %s: checkpointing scenario needs Runner.Dir", spec.Name)
	}

	rep := &Report{Name: spec.Name, Samples: spec.Samples * spec.Epochs}

	var prod *obspkg.Producer
	if r.Bus != nil {
		prod = r.Bus.Producer(256)
	}
	emitFault := func(code FaultKind, replica, stage, cursor int) {
		if prod != nil {
			prod.Emit(obspkg.Event{Kind: obspkg.KindFault, Stage: stage, Replica: replica,
				Count: int64(code), Value: float64(cursor)})
		}
	}

	// Epoch permutations are one deterministic stream: epoch e's order only
	// depends on (seed, e), never on what faults fired before it.
	perms := make([][]int, spec.Epochs)
	prng := rand.New(rand.NewSource(spec.Seed * 7919))
	for e := range perms {
		perms[e] = prng.Perm(r.Data.Len())[:spec.Samples]
	}

	updateSize := 1
	if sched.Policy().GradReduce() {
		updateSize = spec.Replicas
	}
	cfg := core.ScaledConfig(spec.LR, spec.Momentum, 32, updateSize)
	cfg.StageDelay = sched.Delay
	cfg.AdmitBound = spec.AdmitBound
	cfg.Obs = r.Bus

	buildNets := func(n int) []*nn.Network {
		nets := make([]*nn.Network, n)
		nets[0] = r.Build(spec.Seed)
		snap := nets[0].SnapshotWeights()
		for i := 1; i < n; i++ {
			nets[i] = r.Build(spec.Seed)
			nets[i].RestoreWeights(snap)
		}
		return nets
	}
	newCluster := func(n int) (*core.Cluster, error) {
		return core.NewCluster(buildNets(n), cfg, core.ClusterConfig{
			Replicas: n, Engine: spec.Engine, Policy: sched.Policy(),
		})
	}

	cl, err := newCluster(spec.Replicas)
	if err != nil {
		return nil, err
	}
	defer func() { cl.Close() }()

	total := spec.Samples * spec.Epochs
	losses := make([]float64, total)
	correct := make([]bool, total)
	record := func(rs []*core.Result) {
		for _, res := range rs {
			if res.ID >= 0 && res.ID < total {
				losses[res.ID] = res.Loss
				correct[res.ID] = res.Correct
			}
		}
	}
	drainNow := func() error {
		rs, derr := cl.Drain(ctx)
		record(rs)
		return derr
	}
	epochMean := func(e int) (mean float64, acc float64) {
		n := 0
		hits := 0
		for id := e * spec.Samples; id < (e+1)*spec.Samples; id++ {
			mean += losses[id]
			n++
			if correct[id] {
				hits++
			}
		}
		return mean / float64(n), float64(hits) / float64(n)
	}

	ckptPath := filepath.Join(r.Dir, spec.Name+".ckpt")
	lastGood, lastGoodReplicas := -1, 0 // last successful save: cursor, R
	saveOrdinal := 0                    // save attempts (FailCheckpoint keys on this)
	lastCkptFired := 0                  // highest cursor whose save fired (no refire on replay)
	lastEpochDrain := 0                 // highest epoch-boundary cursor drained
	crashIdx := 0                       // crashes are consumed, never replayed
	elasticIdx := 0
	joins := 0

	shape := append([]int{1}, r.Data.Shape...)
	for t := 0; t < total; {
		// Fixed event order at one cursor: epoch boundary, membership,
		// checkpoint, crash, then the sample itself.
		if t > 0 && t%spec.Samples == 0 && t > lastEpochDrain {
			if err := drainNow(); err != nil {
				return rep, err
			}
			lastEpochDrain = t
			if prod != nil {
				e := t / spec.Samples
				mean, _ := epochMean(e - 1)
				prod.Emit(obspkg.Event{Kind: obspkg.KindEpoch, Stage: -1, Replica: -1, Count: int64(e), Value: mean})
			}
		}
		for elasticIdx < len(sched.elastic) && sched.elastic[elasticIdx].AtSample == t {
			m := sched.elastic[elasticIdx]
			elasticIdx++
			if err := drainNow(); err != nil {
				return rep, err
			}
			if m.Remove >= 0 {
				if err := cl.RemoveReplica(m.Remove); err != nil {
					return rep, fmt.Errorf("chaos: %s: remove at sample %d: %w", spec.Name, t, err)
				}
				rep.Removed++
			} else {
				joins++
				net := r.Build(spec.Seed + 1000 + int64(joins))
				if err := cl.AddReplica(net); err != nil {
					return rep, fmt.Errorf("chaos: %s: join at sample %d: %w", spec.Name, t, err)
				}
				rep.Joined++
			}
			emitFault(0, m.Remove, -1, t)
		}
		if spec.CheckpointEvery > 0 && t > 0 && t%spec.CheckpointEvery == 0 && t > lastCkptFired {
			if err := drainNow(); err != nil {
				return rep, err
			}
			lastCkptFired = t
			ord := saveOrdinal
			saveOrdinal++
			if sched.FailsCheckpoint(ord) {
				// The writer is atomic (tmp + rename): a failed save leaves
				// the previous snapshot on disk, so recovery falls back to it.
				rep.FailedSaves++
				emitFault(FailCheckpoint, -1, -1, t)
			} else {
				if err := checkpoint.SaveCluster(ckptPath, cl, map[string]string{"scenario": spec.Name}); err != nil {
					return rep, err
				}
				lastGood, lastGoodReplicas = t, cl.Replicas()
				rep.Checkpoints++
			}
		}
		if crashIdx < len(sched.crashes) && sched.crashes[crashIdx].At == t {
			f := sched.crashes[crashIdx]
			crashIdx++
			rep.Crashes++
			emitFault(CrashReplica, f.Replica, -1, t)
			if lastGood < 0 {
				return rep, fmt.Errorf("chaos: %s: crash at sample %d before any successful checkpoint", spec.Name, t)
			}
			// Abandon the live cluster mid-flight, re-found it at the
			// checkpoint's replica count and restore. The restored cursor
			// rewinds t; the loop re-traverses the lost window, replaying any
			// membership changes and epoch-boundary drains inside it exactly
			// as the first pass ran them.
			cl.Close()
			ncl, err := newCluster(lastGoodReplicas)
			if err != nil {
				return rep, err
			}
			if _, err := checkpoint.LoadCluster(ckptPath, ncl); err != nil {
				ncl.Close()
				return rep, fmt.Errorf("chaos: %s: recover at sample %d: %w", spec.Name, t, err)
			}
			cl = ncl
			restored, _, _ := cl.ClusterCursor()
			rep.Recomputed += t - restored
			t = restored
			lastCkptFired = restored
			lastEpochDrain = restored
			elasticIdx = 0
			for elasticIdx < len(sched.elastic) && sched.elastic[elasticIdx].AtSample <= restored {
				elasticIdx++ // changes at or before the snapshot are inside it
			}
			continue
		}

		e := t / spec.Samples
		idx := perms[e][t%spec.Samples]
		x := cl.InputBuffer(shape...)
		copy(x.Data, r.Data.Samples[idx])
		rs, serr := cl.Submit(ctx, x, r.Data.Labels[idx])
		record(rs)
		if serr != nil {
			return rep, serr
		}
		t++
	}
	if err := drainNow(); err != nil {
		return rep, err
	}

	stats := cl.Stats()
	rep.Replicas = cl.Replicas()
	rep.Utilization = stats.Utilization
	rep.MaxStaleness = stats.MaxObservedDelay
	rep.AdmitDeferred = stats.AdmitDeferred
	rep.Syncs = stats.Syncs
	rep.FinalLoss, rep.Accuracy = epochMean(spec.Epochs - 1)
	rep.FinalWeights = cl.ReplicaNet(0).SnapshotWeights()
	return rep, nil
}

// RunVerified runs the scenario and, when it crashed and the engine is
// schedule-deterministic, also runs an uninterrupted twin — the same spec
// with the fault list stripped but the identical checkpoint/membership/drain
// cadence — and reports whether the recovered run's final canonical weights
// are bit-identical to the twin's. This is the mid-epoch recovery proof:
// restore-plus-recompute must be indistinguishable from never having crashed.
func (r *Runner) RunVerified(ctx context.Context) (*Report, error) {
	rep, err := r.Run(ctx)
	if err != nil {
		return rep, err
	}
	if rep.Crashes == 0 || !DeterministicEngine(r.Spec.Engine) {
		return rep, nil
	}
	twinSpec := r.Spec
	twinSpec.Name = r.Spec.Name + "-twin"
	twinSpec.Faults = nil
	twin := &Runner{Spec: twinSpec, Build: r.Build, Data: r.Data, Dir: r.Dir}
	trep, err := twin.Run(ctx)
	if err != nil {
		return rep, fmt.Errorf("chaos: %s: uninterrupted twin: %w", r.Spec.Name, err)
	}
	rep.ExactChecked = true
	rep.RecoveredExact = weightsIdentical(rep.FinalWeights, trep.FinalWeights)
	return rep, nil
}

// weightsIdentical compares two weight snapshots bit for bit.
func weightsIdentical(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
