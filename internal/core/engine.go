package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Engine is the trainer interface shared by the pipelined-backpropagation
// engines:
//
//   - "seq":      PBTrainer — single-threaded, cycle-accurate reference.
//   - "lockstep": PBTrainer with each half-step sweep fanned out to one
//     goroutine per stage behind a barrier; bit-identical to seq, parallel
//     within a step.
//   - "async":    AsyncPBTrainer — free-running stages over bounded
//     queues, no barrier; staleness capped at D_s per stage.
//
// Submit feeds one sample and returns whatever results completed; the
// engine takes ownership of x (its storage is recycled into the stage-0
// buffer pool once the sample's final update is applied — get the next
// input tensor from InputBuffer instead of reusing x). Drain quiesces the
// pipeline.
//
// Submit and Drain observe ctx: when it is cancelled they stop blocking and
// return ctx's error together with any results already collected (a nil ctx
// is treated as context.Background()). A cancelled engine may still hold
// in-flight samples; call Close to abandon them and release every engine
// goroutine — cancellation plus Close never leaks.
//
// ObservedDelays and Stats are only meaningful on a quiesced pipeline
// (after a completed Drain, or after Close).
type Engine interface {
	Submit(ctx context.Context, x *tensor.Tensor, label int) ([]*Result, error)
	// InputBuffer returns a tensor of the given shape for the next Submit,
	// reusing a retired input buffer when one is available so steady-state
	// feeding allocates nothing.
	InputBuffer(shape ...int) *tensor.Tensor
	Drain(ctx context.Context) ([]*Result, error)
	Close()
	NumStages() int
	Delays() []int
	ObservedDelays() []int
	// Stats returns a snapshot of the engine's progress and utilization
	// accounting. Only valid with the pipeline quiesced.
	Stats() Stats
}

// Stats is a point-in-time snapshot of an engine's accounting. Engines count
// their own completions, so a snapshot needs no caller-supplied state.
type Stats struct {
	// Stages is the pipeline depth S.
	Stages int
	// Submitted counts samples accepted by Submit; Completed counts samples
	// whose final (stage-0) weight update has been applied.
	Submitted int
	Completed int
	// Steps counts pipeline steps driven, including fill/drain bubbles. The
	// free-running async engine has no global step; it reports 0.
	Steps int
	// Utilization is the engine's own utilization measure: the fraction of
	// fully utilized worker steps for the synchronous engines, measured
	// busy-time share of the available cores for the free-running engine.
	Utilization float64
	// MaxObservedDelay is the largest forward→backward update gap seen at
	// any stage (bounded by 2(S−1) — Eq. 5).
	MaxObservedDelay int
	// Replicas is the number of pipeline replicas (cluster engine only;
	// single-pipeline engines report 0).
	Replicas int
	// Syncs counts completed weight-synchronization operations (cluster
	// engine only).
	Syncs int
	// AdmitDeferred counts Submits the free-running async engine deferred at
	// the bounded-staleness admission gate (Config.AdmitBound; clusters sum
	// their replicas'). Engines without the gate report 0.
	AdmitDeferred int
}

// engineNames is the closed engine set, sorted.
var engineNames = []string{"async", "lockstep", "seq"}

// EngineNames lists the engine selectors NewEngine accepts, sorted.
func EngineNames() []string { return append([]string(nil), engineNames...) }

// NewEngine constructs the named engine; the empty name selects the
// sequential reference. Callers must Close the result.
func NewEngine(kind string, net *nn.Network, cfg Config) (Engine, error) {
	e, err := newEngine(kind, net, cfg)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// newEngine is NewEngine typed as what a Cluster replica needs, so that
// every engine in the set is checked at compile time to be able to join one.
func newEngine(kind string, net *nn.Network, cfg Config) (replicaView, error) {
	switch kind {
	case "", "seq":
		return NewPBTrainer(net, cfg), nil
	case "lockstep":
		return newLockstep(net, cfg), nil
	case "async":
		return NewAsyncPBTrainer(net, cfg), nil
	}
	return nil, fmt.Errorf("core: unknown engine %q (want %s)", kind, strings.Join(engineNames, "|"))
}

// ctxErr reports a context's error, treating nil as context.Background().
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Submit implements Engine for the sequential trainer: one Push plus one
// pipeline Step.
func (t *PBTrainer) Submit(ctx context.Context, x *tensor.Tensor, label int) ([]*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	t.Push(x, label)
	if r := t.Step(); r != nil {
		t.emitDriver([]*Result{r})
		return []*Result{r}, nil
	}
	t.emitDriver(nil)
	return nil, nil
}

// Close implements Engine: it retires the lockstep lanes and releases the
// trainer's kernel-worker groups. Idempotent. A seq trainer remains usable
// afterwards with serial kernels; a lockstep one panics on the next Step.
func (t *PBTrainer) Close() {
	if t.lanes != nil {
		t.lanes.stop()
	}
	closeParallels(t.pars)
}

// augFallbackSeed seeds the RNG RunEpoch derives when an augmenter is
// supplied without one — a fixed constant, so the no-RNG path is
// deterministic run to run.
const augFallbackSeed = 0x5eed

// RunEpoch feeds one epoch of the dataset (in the order of perm, or
// sequentially if perm is nil) through any engine, draining at the end, and
// returns the mean training loss and accuracy. This is the engine-agnostic
// training loop — every trainer in the repo (the train.Trainer façade, the
// experiment runners, PBTrainer.TrainEpoch) funnels through it.
//
// aug may be nil. A non-nil augmenter with a nil rng used to crash deep
// inside Augmenter.Apply; RunEpoch now derives a deterministic seeded RNG
// instead (augFallbackSeed shifted by the engine's submitted-sample count,
// so successive epochs on one engine draw fresh augmentations rather than
// replaying the first epoch's), making augmented runs without an explicit
// RNG reproducible. Pass your own rng whenever the draw stream matters.
//
// sink, when non-nil, receives every completed sample's Result in
// completion order, as soon as the engine reports it — the streaming hook
// the callback layer builds on. ctx cancels the epoch: the partial means
// and ctx's error are returned, with samples possibly still in flight
// (Close the engine to abandon them).
func RunEpoch(ctx context.Context, e Engine, ds *data.Dataset, perm []int, aug data.Augmenter, rng *rand.Rand, sink func(*Result)) (meanLoss, acc float64, err error) {
	if aug != nil && rng == nil {
		// The pipeline is quiesced between epochs, so Submitted is a stable,
		// deterministic epoch offset here.
		rng = rand.New(rand.NewSource(augFallbackSeed + int64(e.Stats().Submitted)))
	}
	var lossMeter metrics.Meter
	correct, count := 0, 0
	record := func(rs []*Result) {
		for _, r := range rs {
			lossMeter.Add(r.Loss, 1)
			count++
			if r.Correct {
				correct++
			}
			if sink != nil {
				sink(r)
			}
		}
	}
	summarize := func(err error) (float64, float64, error) {
		if count == 0 {
			return 0, 0, err
		}
		return lossMeter.Mean(), float64(correct) / float64(count), err
	}
	n := ds.Len()
	shape := append([]int{1}, ds.Shape...)
	for i := 0; i < n; i++ {
		idx := i
		if perm != nil {
			idx = perm[i]
		}
		sample := ds.Samples[idx]
		if aug != nil {
			sample = aug.Apply(sample, rng)
		}
		// The engine owns each submitted tensor; InputBuffer hands back
		// retired ones, so the steady-state loop allocates no inputs.
		// SetFloat64s converts at the boundary when the engine runs at f32.
		x := e.InputBuffer(shape...)
		x.SetFloat64s(0, sample)
		rs, serr := e.Submit(ctx, x, ds.Labels[idx])
		record(rs)
		if serr != nil {
			return summarize(serr)
		}
	}
	rs, derr := e.Drain(ctx)
	record(rs)
	return summarize(derr)
}
