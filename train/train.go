// Package train is the public façade over the repo's pipelined-
// backpropagation runtimes: a context-aware Trainer configured with
// functional options, streaming progress through callbacks, with periodic
// checkpointing and resume.
//
//	tr := train.New(builder,
//		train.WithEngine("async"),
//		train.WithMitigations(core.LWPvDSCD),
//		train.OnEpochEnd(func(e train.EpochEvent) { fmt.Println(e.Epoch, e.ValAcc) }))
//	defer tr.Close()
//	report, err := tr.Fit(ctx, trainSet, testSet, epochs)
//
// Fit drives core.RunEpoch — the single training loop every consumer of the
// engines shares — with the paper's hyperparameter protocol: reference
// hyperparameters (RefHyper) are Eq. 9-scaled to update size one for the
// pipelined engines, and a He-style MultiStep decay fires at 50% and 75% of
// the planned updates unless WithSchedule overrides it. The deterministic
// engines ("seq" and "lockstep") produce bit-identical weight trajectories
// through this façade for a given seed.
//
// Cancelling ctx mid-epoch stops the run at the next engine interaction,
// closes the engine (unwinding every stage goroutine — no leaks), and
// returns ctx's error with the partial Report.
package train

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Builder constructs a fresh network for a seed. The Trainer invokes it
// once, on the first Fit (or Resume-into-built), with the WithSeed value.
type Builder func(seed int64) *nn.Network

// Trainer owns one training run: a network built from its Builder, the
// selected engine, and the RNG stream driving data order and augmentation.
// It is not safe for concurrent use. Close releases the engine's
// goroutines; a Trainer whose Fit was cancelled is closed automatically.
type Trainer struct {
	build Builder
	o     options

	net   *nn.Network
	eng   core.Engine
	sgd   *core.SGDTrainer
	rng   *rand.Rand
	built bool

	// resume holds a snapshot loaded before the first Fit, applied once the
	// engine exists.
	resume *checkpoint.State

	closed    bool
	epochs    int // lifetime epochs completed
	completed int // lifetime samples completed
}

// New builds a Trainer around a network Builder. Options validate lazily:
// invalid values are reported by the first Fit or Resume call.
func New(build Builder, opts ...Option) *Trainer {
	t := &Trainer{build: build, o: defaultOptions()}
	for _, opt := range opts {
		if opt != nil {
			opt(&t.o)
		}
	}
	return t
}

// Network exposes the trained network (nil before the first Fit or Resume
// builds it). Callers may evaluate it; mutating weights mid-Fit is
// undefined.
func (t *Trainer) Network() *nn.Network { return t.net }

// Close releases the engine's goroutines, abandoning any in-flight
// samples. Idempotent; the Trainer is unusable afterwards.
func (t *Trainer) Close() {
	if t.closed {
		return
	}
	t.closed = true
	if t.eng != nil {
		t.eng.Close()
	}
}

// precheck validates the call-independent state shared by Fit and Resume.
func (t *Trainer) precheck(ctx context.Context) error {
	if t.closed {
		return errors.New("train: Trainer is closed")
	}
	if len(t.o.errs) > 0 {
		return errors.Join(t.o.errs...)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// scheduleOr returns the configured schedule, or the paper's MultiStep
// default over the planned update count. A zero-epoch first Fit plans no
// updates — milestones at {0, 0} would permanently decay the rate 100×
// before the first real update — so that case falls back to a constant
// rate; callers mixing a zero-epoch evaluation Fit with later training
// should pass WithSchedule explicitly.
func (t *Trainer) scheduleOr(base float64, totalUpdates int) sched.Schedule {
	if t.o.schedule != nil {
		return t.o.schedule
	}
	if totalUpdates <= 0 {
		return sched.Constant{Base: base}
	}
	return sched.MultiStep{Base: base, Milestones: []int{totalUpdates / 2, totalUpdates * 3 / 4}, Gamma: 0.1}
}

// ensureBuilt constructs the network, RNG stream and trainer/engine on the
// first Fit. The default LR schedule is sized from this Fit's dataset and
// epoch count; later Fit calls continue on the same engine and schedule.
func (t *Trainer) ensureBuilt(trainSet *data.Dataset, epochs int) error {
	if t.built {
		return nil
	}
	if t.build == nil {
		return errors.New("train: nil Builder")
	}
	if t.o.sgdm && t.o.replicas > 0 {
		return errors.New("train: WithReplicas replicates the PB pipeline; the SGDM reference has none (drop WithReplicas or the pipeline options)")
	}
	if t.o.dtype == tensor.F32 {
		// f32 training rides the plain pipelined engines. The f64-only
		// combinations are exactly the ones that exchange or predict weights
		// through float64 master buffers; refuse them here rather than let
		// the optim/nn guards panic mid-epoch.
		switch {
		case t.o.sgdm:
			return errors.New("train: WithDType(f32) needs a pipelined engine; the SGDM reference is the f64 oracle")
		case t.o.replicas > 0:
			return errors.New("train: WithDType(f32) excludes WithReplicas (replica weight sync averages f64 buffers)")
		case t.o.mit.LWP || t.o.mit.SpecTrain || t.o.mit.WeightStash:
			return errors.New("train: WithDType(f32) excludes weight prediction and stashing (f64-only master weights); SC and GradShrink remain available")
		}
	}
	buildOne := func() (*nn.Network, error) {
		net := t.build(t.o.seed)
		if net == nil {
			return nil, errors.New("train: Builder returned a nil network")
		}
		if t.o.workers > 0 {
			if t.o.workers > net.NumStages() {
				return nil, fmt.Errorf("train: %d workers exceed the pipeline's %d fine-grained stages", t.o.workers, net.NumStages())
			}
			inShape := append([]int{1}, trainSet.Shape...)
			net, _ = partition.Balance(net, inShape, t.o.workers)
		}
		// Networks are always built (and partition-balanced) at f64 — the
		// initializers draw f64 streams — then converted, so an f32 model is
		// the deterministic float32 cast of its f64 twin (DESIGN.md §15).
		if t.o.dtype == tensor.F32 {
			net.ConvertTo(tensor.F32)
		}
		return net, nil
	}
	net, err := buildOne()
	if err != nil {
		return err
	}
	t.rng = rand.New(rand.NewSource(t.o.seed * 7919))
	n := trainSet.Len()
	ref := t.o.ref
	switch {
	case t.o.sgdm:
		updatesPerEpoch := (n + ref.RefBatch - 1) / ref.RefBatch
		cfg := core.Config{
			LR: ref.Eta, Momentum: ref.Momentum, WeightDecay: ref.WeightDecay,
			Schedule: t.scheduleOr(ref.Eta, updatesPerEpoch*epochs),
		}
		t.sgd = core.NewSGDTrainer(net, cfg, ref.RefBatch)
	case t.o.replicas > 0:
		// Replicated pipelines: R weight-identical networks (clone with
		// shared init — the Builder runs once per replica and every copy is
		// forced onto replica 0's exact initial weights) behind the cluster
		// engine. Replica 0 is the canonical network evaluation sees.
		nets := make([]*nn.Network, t.o.replicas)
		nets[0] = net
		snap := net.SnapshotWeights()
		for i := 1; i < t.o.replicas; i++ {
			ni, err := buildOne()
			if err != nil {
				return err
			}
			ni.RestoreWeights(snap)
			nets[i] = ni
		}
		// sync-grad averages R gradients into every stage update — effective
		// update size R — so the Eq. 9 scaling targets R; the other policies
		// keep each replica at update size one.
		updateSize := 1
		if t.o.policy != nil && t.o.policy.GradReduce() {
			updateSize = t.o.replicas
		}
		cfg := core.ScaledConfig(ref.Eta, ref.Momentum, ref.RefBatch, updateSize)
		cfg.WeightDecay = ref.WeightDecay
		cfg.Mitigation = t.o.mit
		cfg.Workers = t.o.kernelWorkers
		cfg.Obs = t.o.obsBus
		// Each replica sees ~1/R of the stream, so the default MultiStep
		// decay is sized in per-replica updates.
		perReplica := (n + t.o.replicas - 1) / t.o.replicas
		cfg.Schedule = t.scheduleOr(cfg.LR, perReplica*epochs)
		eng, err := core.NewCluster(nets, cfg, core.ClusterConfig{
			Replicas: t.o.replicas, Engine: t.o.engine, Policy: t.o.policy,
		})
		if err != nil {
			return err
		}
		t.eng = eng
	default:
		cfg := core.ScaledConfig(ref.Eta, ref.Momentum, ref.RefBatch, 1)
		cfg.WeightDecay = ref.WeightDecay
		cfg.Mitigation = t.o.mit
		cfg.Workers = t.o.kernelWorkers
		cfg.Obs = t.o.obsBus
		cfg.Schedule = t.scheduleOr(cfg.LR, n*epochs)
		eng, err := core.NewEngine(t.o.engine, net, cfg)
		if err != nil {
			return err
		}
		t.eng = eng
	}
	t.net = net
	t.built = true
	if t.resume != nil {
		st := t.resume
		t.resume = nil
		if err := t.applyState(st); err != nil {
			return err
		}
	}
	return nil
}

// applyState restores a snapshot into the built trainer.
func (t *Trainer) applyState(st *checkpoint.State) error {
	if (st.Meta["engine"] == "sgdm") != (t.sgd != nil) {
		// An SGDM snapshot steps per batch with one optimizer; a pipeline
		// snapshot steps per sample with one optimizer per stage. Even where
		// the shapes agree (S = 1), restoring one into the other would
		// misread the schedule position. Refuse loudly.
		return fmt.Errorf("train: snapshot of engine %q: an SGDM snapshot resumes only an SGDM Trainer, a pipeline snapshot only a pipeline Trainer", st.Meta["engine"])
	}
	return checkpoint.Restore(st, t.view())
}

// view picks the checkpoint surface of the built trainer: the one-stage
// SGDM view, the cluster itself, or a bare engine as one replica.
func (t *Trainer) view() checkpoint.ClusterTrainer {
	if t.sgd != nil {
		return checkpoint.SGDM(t.net, t.sgd.Optimizer(), t.sgd.StepCounter())
	}
	if cl, ok := t.eng.(*core.Cluster); ok {
		return cl
	}
	return checkpoint.Pipeline{Net: t.net, Engine: t.eng.(core.PipelineEngine)}
}

// Resume loads a snapshot saved by WithCheckpointEvery (or the checkpoint
// package) into the Trainer: weights, per-stage optimizer state and the
// LR-schedule position. Called before the first Fit it defers the restore
// until the engine exists; called between Fits it restores immediately
// (the pipeline is drained between epochs, as the checkpoint contract
// requires). The data-order RNG is not part of a snapshot: a resumed run
// replays the permutation stream from its seed.
func (t *Trainer) Resume(ctx context.Context, path string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := t.precheck(ctx); err != nil {
		return err
	}
	st, err := checkpoint.Read(path)
	if err != nil {
		return fmt.Errorf("train: resume %s: %w", path, err)
	}
	if !t.built {
		t.resume = st
		return nil
	}
	return t.applyState(st)
}

// Checkpoint writes a snapshot of the current training state (weights,
// optimizer state, LR-schedule position) to path, exactly like the
// periodic WithCheckpointEvery saves. The Trainer must have been built by
// a Fit or Resume, and the pipeline is quiesced between Fit calls — call
// it there.
func (t *Trainer) Checkpoint(path string) error {
	if t.closed {
		return errors.New("train: Trainer is closed")
	}
	if !t.built {
		return errors.New("train: nothing to checkpoint before the first Fit or Resume")
	}
	meta := map[string]string{"engine": t.o.engine, "epoch": fmt.Sprint(t.epochs)}
	if t.sgd != nil {
		meta["engine"] = "sgdm"
	}
	st, err := checkpoint.Capture(t.view(), meta)
	if err != nil {
		return err
	}
	return checkpoint.Write(path, st)
}

// Fit trains for the given number of epochs, evaluating on testSet after
// each (pass nil to skip evaluation), and returns a Report of what this
// call completed. The first Fit builds the network and engine; later calls
// continue training the same state. On ctx cancellation Fit closes the
// Trainer — every engine goroutine unwinds — and returns ctx's error
// alongside the partial Report.
func (t *Trainer) Fit(ctx context.Context, trainSet, testSet *data.Dataset, epochs int) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var rep Report
	if err := t.precheck(ctx); err != nil {
		return rep, err
	}
	if trainSet == nil || trainSet.Len() == 0 {
		return rep, errors.New("train: empty training set")
	}
	if epochs < 0 {
		return rep, fmt.Errorf("train: %d epochs, want ≥ 0", epochs)
	}
	if err := t.ensureBuilt(trainSet, epochs); err != nil {
		return rep, err
	}
	rep.Stages = t.net.NumStages()

	eval := func() (loss, acc float64, ok bool) {
		if testSet == nil || testSet.Len() == 0 {
			return 0, 0, false
		}
		xs, ys := testSet.Batches(t.o.evalBatch)
		loss, acc = t.net.Evaluate(xs, ys)
		return loss, acc, true
	}

	for e := 0; e < epochs; e++ {
		if err := ctx.Err(); err != nil {
			t.Close()
			return rep, err
		}
		epoch := t.epochs + 1
		sink := func(r *core.Result) {
			t.completed++
			rep.Samples++
			for _, fn := range t.o.onSample {
				fn(SampleEvent{Epoch: epoch, ID: r.ID, Loss: r.Loss, Correct: r.Correct, Completed: t.completed})
			}
		}
		perm := trainSet.Perm(t.rng)
		start := time.Now() //lint:allow(determinism) epoch wall-clock for Report.TrainDuration; never feeds the training math
		var trainLoss, trainAcc float64
		var err error
		if t.sgd != nil {
			trainLoss, trainAcc = t.sgd.TrainEpoch(trainSet, perm, t.o.aug, t.rng)
		} else {
			trainLoss, trainAcc, err = core.RunEpoch(ctx, t.eng, trainSet, perm, t.o.aug, t.rng, sink)
		}
		elapsed := time.Since(start) //lint:allow(determinism) epoch timing for Report.TrainDuration only
		rep.TrainDuration += elapsed
		if err != nil {
			// Cancelled mid-epoch: abandon the in-flight samples and unwind
			// the engine goroutines before handing control back.
			t.Close()
			return rep, err
		}
		if t.sgd != nil {
			t.completed += trainSet.Len()
			rep.Samples += trainSet.Len()
		}
		t.epochs++
		rep.Epochs++
		rep.TrainLoss, rep.TrainAcc = trainLoss, trainAcc
		t.o.obsBus.Emit(obs.Event{Kind: obs.KindEpoch, Stage: -1, Count: int64(t.epochs), Value: trainLoss})

		valLoss, valAcc, hasVal := eval()
		if hasVal {
			rep.Curve = append(rep.Curve, valAcc)
			rep.ValLoss, rep.ValAcc = valLoss, valAcc
		}
		if len(t.o.onEpoch) > 0 {
			ev := EpochEvent{
				Epoch:     epoch,
				TrainLoss: trainLoss, TrainAcc: trainAcc,
				ValLoss: valLoss, ValAcc: valAcc, HasVal: hasVal,
				Elapsed: elapsed,
			}
			if t.eng != nil {
				ev.Stats = t.eng.Stats()
			}
			for _, fn := range t.o.onEpoch {
				fn(ev)
			}
		}
		if t.o.ckptEvery > 0 && t.epochs%t.o.ckptEvery == 0 {
			if err := t.Checkpoint(t.o.ckptPath); err != nil {
				return rep, err
			}
			for _, fn := range t.o.onCkpt {
				fn(CheckpointEvent{Epoch: t.epochs, Path: t.o.ckptPath})
			}
		}
	}
	if epochs == 0 {
		// A zero-epoch Fit still reports where the (possibly resumed)
		// network stands.
		if valLoss, valAcc, hasVal := eval(); hasVal {
			rep.ValLoss, rep.ValAcc = valLoss, valAcc
		}
	}
	if t.eng != nil {
		st := t.eng.Stats()
		rep.Utilization = st.Utilization
		rep.MaxStaleness = st.MaxObservedDelay
		rep.ObservedDelays = append([]int(nil), t.eng.ObservedDelays()...)
		rep.Replicas = st.Replicas
		rep.Syncs = st.Syncs
	}
	return rep, nil
}
