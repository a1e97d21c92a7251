package core

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// stageCtx is the per-sample state a stage keeps between its forward and
// backward pass: the layer contexts, optionally the weights used on the
// forward pass (for stashing), and the stage's update counter at forward
// time (for staleness measurement).
type stageCtx struct {
	ctx        any
	stash      [][]float64
	fwdUpdates int
	id         int
}

// stageState is the runtime state of one pipeline stage.
type stageState struct {
	stage  nn.Stage
	params []*nn.Param
	opt    *optim.Momentum
	delay  int
	// idx is the stage's pipeline position (set at construction).
	idx int
	// queue is a ring buffer of pending per-sample contexts: qhead indexes
	// the oldest entry and qlen counts entries. Outstanding contexts per
	// stage are bounded (≤ delay+2), so the ring stops growing — and the
	// hot path stops allocating — after the pipeline fills.
	queue   []stageCtx
	qhead   int
	qlen    int
	updates int
	// maxObserved tracks the largest forward→backward update gap seen, which
	// tests compare against the analytic D_s = 2(S−1−s).
	maxObserved int
	// arena is the stage's private buffer pool (nil = unpooled reference
	// mode). Only the goroutine driving the stage may touch it.
	arena *tensor.Arena
	// par is the stage's intra-kernel worker group (nil = serial kernels).
	// Engines assign it from Config.Workers — see attachSharedKernelWorkers
	// and attachPerStageKernelWorkers. Like the arena, it is only driven by
	// the goroutine running the stage.
	par *tensor.Parallel
	// labelBuf backs the one-element label slice of the loss head, so the
	// hot path does not allocate it per sample.
	labelBuf [1]int
	// obs is Config.Obs: it receives the stage's observability events (per-
	// backward staleness; the async engine adds busy time and queue depth).
	obs *obs.Bus
	// chaos, when non-nil, is Config.StageDelay: the fault-injection hook
	// consulted (via stall) before each forward/backward transformation.
	chaos func(ChaosPoint) time.Duration
	// mit is the mitigation, and fwdH/fwdForm and bwdH the stage's weight-
	// prediction horizons and form (fwdHorizonFor, bwdHorizonFor; 0 = none),
	// fixed at construction like the delay.
	mit     Mitigation
	fwdH    float64
	fwdForm optim.LWPForm
	bwdH    float64
	// predicted reports that every parameter's G holds ŵ for the current
	// weights instead of a gradient (the fused path, see fused and
	// DESIGN.md §7). Set by the update's StepPredict or by a forward that
	// had to predict; cleared by dropPrediction.
	predicted bool
	// swap parks the weight storage displaced while a forward or backward
	// runs under other weights (swapIn/swapOut), one slot per parameter.
	swap [][]float64
	// bwdPred is SpecTrain's backward-pass prediction, allocated on first use.
	bwdPred [][]float64
}

// inflight is a sample travelling forward through the pipeline.
type inflight struct {
	packet *nn.Packet
	label  int
	id     int
}

// Result summarizes one completed training sample.
type Result struct {
	ID      int
	Loss    float64
	Correct bool
}

// maxFreeInputs bounds the driver-side free list of recycled input tensors.
const maxFreeInputs = 8

// PBTrainer trains a network with fine-grained pipelined backpropagation at
// update size one. Construct with NewPBTrainer; feed samples with Push and
// advance with Step, or use TrainEpoch for the common loop.
// The "seq" engine runs each of a step's two sweeps as a loop; "lockstep"
// fans them out to per-stage lanes (lockstep.go) and is bit-identical.
type PBTrainer struct {
	Net *nn.Network
	Cfg Config
	stageSet
	// fwd and bwd hold the activations and gradients arriving at each stage
	// this step; the sweeps write next step's arrivals into nextFwd and
	// nextBwd, and Step swaps the pairs.
	fwd     []*inflight
	bwd     []*nn.Packet
	nextFwd []*inflight
	nextBwd []*nn.Packet
	// lossGrad carries the same-step backward input of the last stage, and
	// result the sample whose loss was computed this step.
	lossGrad *nn.Packet
	result   *Result
	// held[i] reports that stage i's gradient sweep left a gradient in G
	// this step that is not applied yet (a sync-grad cluster's round,
	// cluster.go, averages and applies it).
	held []bool
	// forwardSweep, backwardSweep and gradSweep are forwardStage,
	// backwardStage and forwardGradStage bound once, so that releasing a
	// sweep allocates nothing.
	forwardSweep, backwardSweep, gradSweep func(i int)
	// lanes runs the sweeps on per-stage goroutines (lockstep; nil = seq).
	lanes *lanes
	// pending is the sample Push queued for the next Step.
	pending     *inflight
	outstanding int
	completed   int
	nextID      int
	updateStep  int
	// Steps counts pipeline steps, used for utilization accounting.
	Steps int
	// inputFree holds input tensors retired by stage 0's backward pass, for
	// reuse by InputBuffer (bounded by maxFreeInputs).
	inputFree []*tensor.Tensor
	// dtype is the network's parameter dtype, cached at construction:
	// InputBuffer runs once per sample and Network.DType walks the parameter
	// list, which would allocate on the steady-state feeding path.
	dtype tensor.DType
	// pars are the kernel-worker groups this trainer owns (closed by Close).
	pars []*tensor.Parallel
}

// NewPBTrainer builds the engine. The network's stages become pipeline
// stages; per-stage delays and mitigation coefficients are fixed at
// construction from the pipeline geometry. Unless cfg.Unpooled is set,
// every stage gets a private tensor arena so steady-state training reuses
// all activation/gradient buffers.
func NewPBTrainer(net *nn.Network, cfg Config) *PBTrainer {
	t := newPBTrainer(net, cfg)
	// The sequential engine drives stages one at a time, so the whole
	// Config.Workers budget becomes one kernel group shared by every stage.
	t.pars = attachSharedKernelWorkers(t.stages, cfg.Workers)
	return t
}

// newPBTrainer builds the per-stage state without attaching kernel-worker
// groups; the concurrent engines reuse it and split Config.Workers their
// own way (see workers.go).
func newPBTrainer(net *nn.Network, cfg Config) *PBTrainer {
	s := net.NumStages()
	delays := StageDelays(s)
	t := &PBTrainer{Net: net, Cfg: cfg, dtype: net.DType()}
	for i, st := range net.Stages {
		ss := &stageState{stage: st, params: st.Params(), delay: delays[i], idx: i, chaos: cfg.StageDelay, obs: cfg.Obs,
			mit: cfg.Mitigation, bwdH: bwdHorizonFor(cfg.Mitigation, i)}
		ss.fwdH, ss.fwdForm = fwdHorizonFor(cfg.Mitigation, s, i, delays[i])
		ss.swap = make([][]float64, len(ss.params))
		if !cfg.Unpooled {
			ss.arena = tensor.NewArena()
		}
		o := optim.NewMomentum(cfg.LR, cfg.Momentum)
		o.WeightDecay = cfg.WeightDecay
		o.A, o.B = 1, 0
		if cfg.Mitigation.SC {
			scale := cfg.Mitigation.SCScale
			if scale == 0 {
				scale = 1
			}
			o.A, o.B = optim.SpikeCoefficients(cfg.Momentum, scale*float64(delays[i]))
		}
		if cfg.Mitigation.LWP && cfg.Mitigation.LWPForm == optim.LWPWeight {
			o.TrackPrev = true
		}
		ss.opt = o
		t.stages = append(t.stages, ss)
	}
	t.fwd = make([]*inflight, s)
	t.bwd = make([]*nn.Packet, s)
	t.held = make([]bool, s)
	t.forwardSweep, t.backwardSweep, t.gradSweep = t.forwardStage, t.backwardStage, t.forwardGradStage
	t.nextFwd = make([]*inflight, s)
	t.nextBwd = make([]*nn.Packet, s)
	return t
}

// Outstanding returns the number of samples currently in the pipeline.
func (t *PBTrainer) Outstanding() int { return t.outstanding }

// Push queues a sample to enter the pipeline on the next Step, taking
// ownership of x (the engine recycles it once the sample completes; use
// InputBuffer to get a recycled tensor back). It panics if a sample is
// already pending (one sample enters per step).
func (t *PBTrainer) Push(x *tensor.Tensor, label int) {
	if t.pending != nil {
		panic("core: Push called twice without Step")
	}
	t.pending = &inflight{packet: nn.NewPacket(x), label: label, id: t.nextID}
	t.nextID++
	t.outstanding++
}

// InputBuffer returns a tensor of the given shape for the next Push/Submit,
// reusing a retired input buffer when one is available.
func (t *PBTrainer) InputBuffer(shape ...int) *tensor.Tensor {
	return takeInput(&t.inputFree, t.dtype, shape)
}

// takeInput pops a recycled input of matching size and dtype from free, or
// allocates at the engine's dtype.
func takeInput(free *[]*tensor.Tensor, dt tensor.DType, shape []int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	for len(*free) > 0 {
		l := *free
		x := l[len(l)-1]
		l[len(l)-1] = nil
		*free = l[:len(l)-1]
		if x.Size() == n && x.DType() == dt {
			x.SetShape(shape...)
			return x
		}
	}
	return tensor.NewDT(dt, shape...)
}

// recycleInput stores a retired input tensor for reuse. When the free list
// is full it goes back to ar, stage 0's arena, as in the async engine: a
// refill after a drain then finds the input-gradient buffers its first
// backwards need, even when stage 0 holds its inputs as contexts.
func recycleInput(free *[]*tensor.Tensor, x *tensor.Tensor, ar *tensor.Arena) {
	if x == nil {
		return
	}
	if len(*free) >= maxFreeInputs {
		ar.Put(x)
		return
	}
	*free = append(*free, x)
}

// Step advances the pipeline by one step: every stage performs its forward
// and backward transformation and applies at most one weight update. It
// returns the result of the sample whose loss was computed this step, if
// any. On the lockstep engine it panics after Close.
func (t *PBTrainer) Step() *Result {
	t.begin()
	t.sweep(t.forwardSweep)
	t.sweep(t.backwardSweep)
	return t.end()
}

// begin starts a step: the pushed sample, if any, arrives at stage 0.
func (t *PBTrainer) begin() {
	if t.pending != nil {
		t.fwd[0] = t.pending
		t.pending = nil
	}
	t.result = nil
}

// end finishes a step whose sweeps have run and returns its result, if any.
// The forward and backward sweeps consumed every arrival, so fwd and bwd are
// all nil again and become the next step's outputs.
func (t *PBTrainer) end() *Result {
	t.fwd, t.nextFwd = t.nextFwd, t.fwd
	t.bwd, t.nextBwd = t.nextBwd, t.bwd
	t.updateStep++
	t.Steps++
	return t.result
}

// sweep runs f(i), stage i's part of one sweep, for every stage i and
// returns once all of them are done. A sweep's parts are independent of
// each other.
func (t *PBTrainer) sweep(f func(i int)) {
	t.release(f)
	t.wait()
}

// release starts f on every stage. The seq engine runs the whole sweep
// here; lockstep hands f to the lanes, so several pipelines can be
// released before any of them is waited for.
func (t *PBTrainer) release(f func(i int)) {
	if t.lanes != nil {
		t.lanes.release(f)
		return
	}
	for i := range t.stages {
		f(i)
	}
}

// wait returns once the sweep release started is done on every stage.
func (t *PBTrainer) wait() {
	if t.lanes != nil {
		t.lanes.wait()
	}
}

// forwardStage is stage i's half of the forward sweep: it processes the
// activation that arrived this step and hands the output to stage i+1 for
// the next step, reusing the incoming inflight wrapper. The last stage runs
// the loss head instead, producing this step's result and the loss
// gradient its own backward consumes in the same step.
func (t *PBTrainer) forwardStage(i int) {
	in := t.fwd[i]
	if in == nil {
		return
	}
	t.fwd[i] = nil
	st := t.stages[i]
	st.stall(false)
	out := st.runForward(in)
	if i < len(t.stages)-1 {
		in.packet = out
		t.nextFwd[i+1] = in
		return
	}
	loss, correct, grad := st.runLossHead(t.Net.Head, out, in.label)
	t.lossGrad = grad
	t.result = &Result{ID: in.id, Loss: loss, Correct: correct}
}

// backwardStage is stage i's half of the backward sweep: it consumes the
// gradient that arrived this step (for the last stage, the loss gradient
// computed this very step) and updates its weights immediately — update
// size one, no draining.
func (t *PBTrainer) backwardStage(i int) { t.backwardAt(i, false) }

// forwardGradStage is stage i's part of a sync-grad cluster's first sweep:
// forwardStage, then backwardStage without the update, so the weight
// gradient stays in G, held for the cluster to average and apply. A stage's
// forward and backward read only what the previous step left for it (and,
// at the last stage, its own loss gradient), so running both in one sweep
// computes what the two sweeps of Step compute.
func (t *PBTrainer) forwardGradStage(i int) {
	t.forwardStage(i)
	t.backwardAt(i, true)
}

// backwardAt runs stage i's backward and, unless hold is set, its update.
// Stage 0 retires the sample; every other stage hands its input gradient to
// stage i−1 for the next step.
func (t *PBTrainer) backwardAt(i int, hold bool) {
	var dIn *nn.Packet
	if i == len(t.stages)-1 {
		dIn = t.lossGrad
		t.lossGrad = nil
	} else {
		dIn = t.bwd[i]
		t.bwd[i] = nil
	}
	if dIn == nil {
		return
	}
	st := t.stages[i]
	st.stall(true)
	var dx *nn.Packet
	if hold {
		dx = st.backward(dIn)
		t.held[i] = true
	} else {
		dx = st.runBackward(dIn, t.lr())
	}
	if i == 0 {
		t.outstanding--
		t.completed++
		recycleInput(&t.inputFree, dx.X, st.arena)
	} else {
		t.nextBwd[i-1] = dx
	}
}

// lr is the learning rate of this step's updates.
func (t *PBTrainer) lr() float64 { return t.Cfg.lrAt(t.updateStep) }

// pending reports the number of contexts (samples) awaiting their backward
// pass at this stage.
func (s *stageState) pending() int { return s.qlen }

// push appends a context to the stage FIFO.
func (s *stageState) push(ctx any, stash [][]float64, id int) {
	if s.qlen == len(s.queue) {
		// Grow the ring, restoring FIFO order into the new storage.
		grown := make([]stageCtx, 2*s.qlen+4)
		for i := 0; i < s.qlen; i++ {
			grown[i] = s.queue[(s.qhead+i)%len(s.queue)]
		}
		s.queue = grown
		s.qhead = 0
	}
	s.queue[(s.qhead+s.qlen)%len(s.queue)] = stageCtx{ctx: ctx, stash: stash, fwdUpdates: s.updates, id: id}
	s.qlen++
}

// pop removes the oldest context (samples complete in order).
func (s *stageState) pop() stageCtx {
	if s.qlen == 0 {
		panic("core: backward with empty context queue at stage " + s.stage.Name())
	}
	c := s.queue[s.qhead]
	s.queue[s.qhead] = stageCtx{}
	s.qhead = (s.qhead + 1) % len(s.queue)
	s.qlen--
	return c
}

// Drain advances the pipeline without feeding new samples until every
// in-flight sample has completed, returning their results. A cancelled ctx
// stops the drain early, returning the results collected so far and ctx's
// error (the collected results are still published to the bus); remaining
// samples stay in flight.
func (t *PBTrainer) Drain(ctx context.Context) ([]*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var rs []*Result
	for t.outstanding > 0 {
		if err := ctxErr(ctx); err != nil {
			t.emitDriver(rs)
			return rs, err
		}
		if r := t.Step(); r != nil {
			rs = append(rs, r)
		}
	}
	t.dropPredictions()
	t.emitDriver(rs)
	emitDrainSummary(t.Cfg.Obs, t.Stats())
	return rs, nil
}

// emitDriver publishes the driver-side view — completed samples and the
// engine-level queue depth — after a Submit or Drain.
func (t *PBTrainer) emitDriver(rs []*Result) {
	emitResults(t.Cfg.Obs, t.completed, rs)
	t.Cfg.Obs.Emit(obs.Event{Kind: obs.KindQueueDepth, Stage: -1, Count: int64(t.outstanding)})
}

// TrainEpoch feeds one epoch of the dataset (in the order of perm, or
// sequentially if perm is nil) through the pipeline, draining at the end,
// and returns the mean training loss and accuracy. aug may be nil. It is
// RunEpoch without cancellation or streaming — the convenience form tests
// and ablations use.
func (t *PBTrainer) TrainEpoch(ds *data.Dataset, perm []int, aug data.Augmenter, rng *rand.Rand) (meanLoss, acc float64) {
	meanLoss, acc, _ = RunEpoch(context.Background(), t, ds, perm, aug, rng, nil)
	return meanLoss, acc
}

// Stats snapshots the step-based accounting: utilization is the fraction of
// fully utilized worker steps over the trainer's lifetime — each of the S
// workers can do one forward plus one backward per step, and a completed
// sample contributes 2S work units.
func (t *PBTrainer) Stats() Stats {
	s := Stats{
		Stages:    len(t.stages),
		Submitted: t.nextID,
		Completed: t.completed,
		Steps:     t.Steps,
	}
	if t.Steps > 0 {
		s.Utilization = float64(2*len(t.stages)*t.completed) / float64(2*len(t.stages)*t.Steps)
	}
	s.MaxObservedDelay = t.maxObservedDelay()
	return s
}

// UpdateStep returns the global update-step counter (the LR-schedule
// position), for checkpointing.
func (t *PBTrainer) UpdateStep() int { return t.updateStep }

// SetUpdateStep restores the schedule position from a checkpoint.
func (t *PBTrainer) SetUpdateStep(step int) { t.updateStep = step }
