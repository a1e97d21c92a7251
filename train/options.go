package train

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/sched"
	syncpol "repro/internal/sync"
	"repro/internal/tensor"
)

// RefHyper are reference hyperparameters in the style of He et al. (2016a):
// tuned once at reference update size RefBatch and reused by every method.
// The Trainer applies the paper's Eq. 9 scaling to update size one for the
// pipelined engines and uses them unscaled for the SGDM reference — the
// paper's "no hyperparameter tuning" protocol.
type RefHyper struct {
	Eta, Momentum, WeightDecay float64
	RefBatch                   int
}

// DefaultRef is the reference setting used by the repo's image experiments.
var DefaultRef = RefHyper{Eta: 0.05, Momentum: 0.9, WeightDecay: 1e-4, RefBatch: 32}

// Option configures a Trainer at construction. Invalid values are collected
// and reported by the first Fit or Resume call, so New never fails.
type Option func(*options)

type options struct {
	engine        string
	mit           core.Mitigation
	schedule      sched.Schedule
	ref           RefHyper
	workers       int
	kernelWorkers int
	replicas      int
	policy        syncpol.Policy
	ckptEvery     int
	ckptPath      string
	unpooled      bool
	stageDelay    func(core.ChaosPoint) time.Duration
	admitBound    int
	seed          int64
	sgdm          bool
	dtype         tensor.DType
	aug           data.Augmenter
	evalBatch     int
	obsBus        *obs.Bus
	lineagePath   string

	onSample []func(SampleEvent)
	onEpoch  []func(EpochEvent)
	onCkpt   []func(CheckpointEvent)

	errs []error
}

func defaultOptions() options {
	return options{engine: "seq", ref: DefaultRef, seed: 1, evalBatch: 32}
}

// WithEngine selects the pipelined-backpropagation runtime by registry name
// (core.EngineNames lists them; "seq", "lockstep" and "async" are built
// in). The empty string keeps the sequential
// reference. Unknown names surface as an error from Fit, when the engine is
// constructed.
func WithEngine(name string) Option {
	return func(o *options) { o.engine = name }
}

// WithMitigations applies a delay-mitigation preset (e.g. core.LWPvDSCD,
// the paper's best combination) to the pipelined engines. Ignored by the
// SGDM reference, which has no delay to mitigate.
func WithMitigations(m core.Mitigation) Option {
	return func(o *options) { o.mit = m }
}

// WithSchedule overrides the learning-rate schedule. By default the Trainer
// installs the paper's He-style MultiStep decay, dropping the rate 10× at
// 50% and 75% of the total planned updates (derived from the first Fit's
// dataset size and epoch count).
func WithSchedule(s sched.Schedule) Option {
	return func(o *options) { o.schedule = s }
}

// WithRefHyper replaces the reference hyperparameters (DefaultRef
// otherwise).
func WithRefHyper(r RefHyper) Option {
	return func(o *options) {
		if r.RefBatch < 1 {
			o.errs = append(o.errs, fmt.Errorf("train: RefHyper.RefBatch %d, want ≥ 1", r.RefBatch))
			return
		}
		if r.Eta <= 0 {
			o.errs = append(o.errs, fmt.Errorf("train: RefHyper.Eta %v, want > 0", r.Eta))
			return
		}
		o.ref = r
	}
}

// WithWorkers regroups the fine-grained pipeline onto n cost-balanced
// workers before training (internal/partition), trading the shorter
// delays of a coarse pipeline against worker specialization. Zero keeps
// the fine-grained decomposition (every layer a stage).
func WithWorkers(n int) Option {
	return func(o *options) {
		if n < 0 {
			o.errs = append(o.errs, fmt.Errorf("train: %d workers, want ≥ 0", n))
			return
		}
		o.workers = n
	}
}

// WithKernelWorkers sets the engine's compute-worker budget n: the total
// number of concurrently busy goroutines the engine may use for stage
// compute, split between pipeline-stage concurrency and intra-kernel
// (blocked GEMM / fused conv) parallelism. The sequential engine gives the
// whole budget to one shared kernel group; the concurrent engines reserve
// one worker per stage and spread the surplus as per-stage kernel workers,
// front-loaded onto the early (FLOP-heavy) stages. 0 (the default) and 1
// disable intra-kernel parallelism. Training results are bit-identical at
// every setting — the parallel kernels partition output tiles without
// changing any accumulation order (DESIGN.md §9). Ignored by the SGDM
// reference. Not to be confused with WithWorkers, which regroups the
// pipeline stages themselves.
func WithKernelWorkers(n int) Option {
	return func(o *options) {
		if n < 0 {
			o.errs = append(o.errs, fmt.Errorf("train: %d kernel workers, want ≥ 0", n))
			return
		}
		o.kernelWorkers = n
	}
}

// WithReplicas trains r data-parallel replicas of the whole pipeline behind
// one cluster engine (core.Cluster): the Builder is invoked once per replica
// with the run seed and every replica is forced weight-identical to the
// first (clone with shared init — independent parameter storage, identical
// values), the sample stream is sharded round-robin across replicas
// (data.Shard striding), and the compute-worker budget of WithKernelWorkers
// is split across replicas before each replica splits it across stages.
//
// policy selects the weight-sync policy: "none" (independent replicas —
// throughput ceiling / ensemble), "avg-every-<k>" (local-SGD-style parameter
// averaging every k samples per replica and at every drain) or "sync-grad"
// (per-update gradient averaging; at r > 1 it needs the "seq" or "lockstep"
// engine and keeps all replicas bit-identical — PB with effective update
// size r). A cluster with r=1 is bit-identical to the bare engine under
// every policy. Ignored by WithSGDM (error at Fit). See DESIGN.md §10.
func WithReplicas(r int, policy string) Option {
	return func(o *options) {
		if r < 1 {
			o.errs = append(o.errs, fmt.Errorf("train: %d replicas, want ≥ 1", r))
			return
		}
		p, err := syncpol.Parse(policy)
		if err != nil {
			o.errs = append(o.errs, fmt.Errorf("train: %w", err))
			return
		}
		o.replicas, o.policy = r, p
	}
}

// WithCheckpointEvery saves a pipeline snapshot to path after every n
// epochs (checkpoint.SavePipeline; atomic tmp+rename). The OnCheckpoint
// hooks fire after each successful save. Resume restores such snapshots.
func WithCheckpointEvery(n int, path string) Option {
	return func(o *options) {
		if n < 1 {
			o.errs = append(o.errs, fmt.Errorf("train: checkpoint every %d epochs, want ≥ 1", n))
			return
		}
		if path == "" {
			o.errs = append(o.errs, fmt.Errorf("train: checkpoint path is empty"))
			return
		}
		o.ckptEvery, o.ckptPath = n, path
	}
}

// WithUnpooled disables the per-stage tensor arenas, allocating fresh
// buffers for every operation exactly like the pre-pooling engines. Slower,
// numerically identical — the reference mode the pooled-equivalence tests
// compare against.
func WithUnpooled() Option {
	return func(o *options) { o.unpooled = true }
}

// WithStageDelay installs a chaos stall hook on the pipelined engines: fn is
// consulted at every stage visit (forward and backward) with the visit's
// ChaosPoint and the stage sleeps for the returned duration before computing.
// Under WithReplicas the cluster stamps each replica's join-order identity
// into ChaosPoint.Replica; single-engine runs see Replica = -1. Stalls are
// pure wall-clock — they shift timing and the free-running engine's race
// outcomes, but never the arithmetic, so the deterministic engines stay
// bit-identical under any hook (chaos.Schedule.Delay is the intended fn; see
// DESIGN.md §14). Ignored by the SGDM reference. A nil fn disables stalls.
func WithStageDelay(fn func(core.ChaosPoint) time.Duration) Option {
	return func(o *options) { o.stageDelay = fn }
}

// WithAdmitBound caps the free-running async engine's in-flight samples at n:
// once n submissions are unfinished, Submit blocks (bounded-staleness
// admission) until one completes, emitting staleness/queue-depth events on
// the observer bus and counting the deferral in Stats().AdmitDeferred. Only
// the "async" engine enforces the bound — the stepped engines already bound
// staleness structurally and ignore it. Zero (the default)
// means unbounded.
func WithAdmitBound(n int) Option {
	return func(o *options) {
		if n < 0 {
			o.errs = append(o.errs, fmt.Errorf("train: admit bound %d, want ≥ 0", n))
			return
		}
		o.admitBound = n
	}
}

// WithSeed sets the run seed: the Builder is invoked with it, and the
// epoch-permutation/augmentation RNG is derived from it (seed*7919, the
// stream the experiment runners have always used). Default 1.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithSGDM trains with the paper's mini-batch SGDM reference (update size
// RefBatch, no pipeline, no delay) instead of a pipelined engine. Engine,
// mitigation, worker and unpooled options are ignored in this mode, and
// per-sample hooks do not fire (the reference trainer reports per batch).
func WithSGDM() Option {
	return func(o *options) { o.sgdm = true }
}

// WithDType selects the parameter/compute dtype for the trained network.
// The default, tensor.F64, is the repo's bit-exact oracle path. tensor.F32
// converts the freshly built (f64-initialized) network to float32 before
// training: weights are the deterministic float32 cast of the f64 twin's
// initial weights, kernels run the f32 SIMD path, and the Momentum optimizer
// keeps f64 velocities with one rounding per step (DESIGN.md §15).
//
// f32 training is restricted to the plain pipelined engines: the SGDM
// reference, WithReplicas clusters and every delay mitigation stay f64-only
// (they exchange or predict weights through f64 master buffers), and Fit
// reports an error for those combinations. Checkpoints remain canonical f64
// — saving an f32 run widens, resuming narrows per value.
func WithDType(dt tensor.DType) Option {
	return func(o *options) {
		if dt != tensor.F64 && dt != tensor.F32 {
			o.errs = append(o.errs, fmt.Errorf("train: unknown dtype %v, want tensor.F64 or tensor.F32", dt))
			return
		}
		o.dtype = dt
	}
}

// WithAugment applies a data augmentation policy to every training sample.
// A nil augmenter is the same as not setting one.
func WithAugment(aug data.Augmenter) Option {
	return func(o *options) { o.aug = aug }
}

// WithObserver attaches a metrics bus (obs.NewBus) to the run: the engine
// emits its per-stage queue depths, staleness observations, busy-time
// accounting and drain summaries onto it, and the Trainer adds a KindEpoch
// event after every epoch. The caller owns the bus — subscribe an
// obs.Aggregator or mount obs.Handler for /metrics and /events, and Close it
// after the Trainer. Observation is passive: a run with a bus attached is
// bit-identical to one without (core.TestObsDoesNotPerturbTraining).
func WithObserver(bus *obs.Bus) Option {
	return func(o *options) { o.obsBus = bus }
}

// WithLineage records run lineage to the JSON graph at path
// (obs/lineage.Graph; created on first write, merged into on later ones): a
// content-addressed config node for this Trainer's hyperparameters, a
// checkpoint node (keyed by the snapshot file's sha256) for every
// WithCheckpointEvery save, and a run node per Fit linking config →
// checkpoints. Graphs from separate runs sharing a checkpoint file join on
// the identical checkpoint node, so a serving run's lineage can be traced
// back to the training run that produced its weights.
func WithLineage(path string) Option {
	return func(o *options) {
		if path == "" {
			o.errs = append(o.errs, fmt.Errorf("train: lineage path is empty"))
			return
		}
		o.lineagePath = path
	}
}

// OnSampleDone registers a callback streaming every completed training
// sample in completion order — the live loss/accuracy feed. Callbacks run
// on the Fit goroutine (between engine submissions), so they see a
// quiescent Trainer but should return quickly.
func OnSampleDone(fn func(SampleEvent)) Option {
	return func(o *options) {
		if fn != nil {
			o.onSample = append(o.onSample, fn)
		}
	}
}

// OnEpochEnd registers a callback invoked after each epoch's drain (and
// evaluation, when a test set was supplied).
func OnEpochEnd(fn func(EpochEvent)) Option {
	return func(o *options) {
		if fn != nil {
			o.onEpoch = append(o.onEpoch, fn)
		}
	}
}

// OnCheckpoint registers a callback invoked after each successful periodic
// checkpoint save (see WithCheckpointEvery).
func OnCheckpoint(fn func(CheckpointEvent)) Option {
	return func(o *options) {
		if fn != nil {
			o.onCkpt = append(o.onCkpt, fn)
		}
	}
}
