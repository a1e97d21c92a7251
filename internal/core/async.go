package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// AsyncMode selects the scheduling discipline of the AsyncPBTrainer.
type AsyncMode int

const (
	// ModeFree lets every stage free-run: a stage consumes work the moment
	// it is available, with backward packets prioritized over forward and a
	// per-stage cap on in-flight samples that bounds the observed gradient
	// staleness at the paper's D_s = 2(S−1−s). Throughput mode; the exact
	// interleaving (and therefore the float trajectory) depends on runtime
	// scheduling.
	ModeFree AsyncMode = iota
	// ModeLockstep runs the same stage goroutines as a systolic array: every
	// pipeline round each stage exchanges exactly one (possibly empty)
	// forward and backward token with its neighbors, which reproduces the
	// sequential PBTrainer's GProp schedule deterministically — the weight
	// trajectory is bit-identical to PBTrainer. Tests use this mode to prove
	// the concurrent engine computes the same thing.
	ModeLockstep
)

// String names the mode.
func (m AsyncMode) String() string {
	if m == ModeLockstep {
		return "lockstep"
	}
	return "free"
}

// asyncStage is one free-running pipeline worker: the engine-independent
// stage state plus its inbound queues. Everything here is owned by the
// stage's goroutine while the pipeline runs; the driver reads the plain
// fields only after Drain or Close, which establish happens-before through
// the completion channel.
type asyncStage struct {
	*stageState
	// fwdIn carries activations from stage i−1 (the driver for stage 0).
	// Bounded: its capacity plus the context-FIFO cap is the only buffering
	// between neighbors, so memory stays bounded no matter how fast
	// upstream runs.
	fwdIn chan *inflight
	// bwdIn carries gradients from stage i+1. Sized so sends never block
	// (at most delay+1 gradients can be outstanding toward this stage),
	// which makes the backward path wait-free and the pipeline
	// deadlock-free. Nil for the last stage, which feeds itself through the
	// loss head.
	bwdIn chan *nn.Packet
	// busyNs accumulates time spent inside Forward/Backward/update, for the
	// measured utilization.
	busyNs int64
}

// emitObs publishes the stage's cumulative busy time and current forward
// queue depth onto the bus. Called only from the stage's own goroutine
// (single-producer ring); a nil producer discards.
func (st *asyncStage) emitObs() {
	if st.obs == nil {
		return
	}
	st.obs.Emit(obs.Event{Kind: obs.KindStageBusy, Stage: st.idx, Count: st.busyNs})
	st.obs.Emit(obs.Event{Kind: obs.KindQueueDepth, Stage: st.idx, Count: int64(len(st.fwdIn))})
}

// AsyncPBTrainer is the free-running concurrent engine for fine-grained
// pipelined backpropagation. Unlike ParallelPBTrainer there is no global
// per-step barrier: each stage goroutine owns its parameters, optimizer and
// context FIFO outright and exchanges activations and gradients with its
// neighbors through bounded channels, so a fast stage never waits for a slow
// stage it doesn't border and multiple samples are in flight per stage.
//
// Staleness stays bounded without any global coordination: stage s accepts a
// new forward only while its context FIFO holds at most D_s = 2(S−1−s)
// pending samples, so the number of weight updates between a sample's
// forward and backward pass at that stage can never exceed the synchronous
// schedule's delay (Eq. 5) — the free-running engine is at most as stale as
// the paper's GProp schedule, per stage, always.
//
// In ModeLockstep the same goroutines run as a systolic array exchanging one
// token per round with each neighbor, which reproduces the PBTrainer
// schedule exactly; see AsyncMode.
//
// The driver API is streaming: Submit feeds one sample (blocking when the
// pipeline is saturated — bounded queues give natural backpressure) and
// returns any results that completed in the meantime; Drain quiesces the
// pipeline. ObservedDelays, Updates and Utilization must only be read with
// the pipeline quiesced (after Drain or Close).
type AsyncPBTrainer struct {
	Net  *nn.Network
	Cfg  Config
	Mode AsyncMode

	stages []*asyncStage
	// resCh carries completed-sample results from the last stage back to
	// the driver. The driver harvests it inside every blocking send, so the
	// last stage can never wedge the pipeline on a full result queue.
	resCh chan *Result
	// inputFree carries retired input tensors from stage 0 back to the
	// driver for reuse by InputBuffer. Sends never block: when the driver
	// doesn't collect them, stage 0 recycles the buffers into its own arena
	// instead.
	inputFree chan *tensor.Tensor
	// dtype caches the network's parameter dtype for InputBuffer;
	// Network.DType walks the parameter list and would allocate per sample.
	dtype tensor.DType
	// completed counts samples whose final (stage-0) update has been
	// applied; donePing wakes a Drain waiting on it.
	completed atomic.Int64
	donePing  chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
	closed    bool
	// pars are the per-stage kernel-worker groups (closed by Close).
	pars []*tensor.Parallel

	// Driver-local bookkeeping (single-goroutine).
	submitted int
	nextID    int
	// admitDeferred counts Submits that had to wait for the pipeline to fall
	// back under Cfg.AdmitBound before admitting (bounded-staleness
	// admission; free mode only).
	admitDeferred int
	// step and lastPush drive the deterministic drain in lockstep mode:
	// step counts tokens issued to stage 0 (≡ PBTrainer pipeline steps) and
	// lastPush is the step of the most recent real sample. A sample pushed
	// at step p completes at step p+2(S−1), so Drain issues empty tokens up
	// to exactly that round — the same number of steps PBTrainer.Drain
	// executes.
	step     int
	lastPush int
	// Wall-clock accounting for measured utilization: the clock runs from
	// the first Submit after idle until the Drain that empties the
	// pipeline, so evaluation pauses between epochs don't dilute it.
	running bool
	started time.Time
	wallNs  int64
	// obsDrv is the driver-side producer for Config.Obs (nil without a bus).
	obsDrv *obs.Producer
}

// NewAsyncPBTrainer builds the engine around the same per-stage state as
// NewPBTrainer and starts one goroutine per stage.
func NewAsyncPBTrainer(net *nn.Network, cfg Config, mode AsyncMode) *AsyncPBTrainer {
	inner := newPBTrainer(net, cfg) // reuse stage construction (optimizers, delays)
	s := len(inner.stages)
	t := &AsyncPBTrainer{
		Net:       net,
		Cfg:       cfg,
		Mode:      mode,
		resCh:     make(chan *Result, 2*s+4),
		inputFree: make(chan *tensor.Tensor, maxFreeInputs),
		donePing:  make(chan struct{}, 1),
		stop:      make(chan struct{}),
		dtype:     inner.dtype,
	}
	for i, st := range inner.stages {
		as := &asyncStage{stageState: st}
		if mode == ModeLockstep {
			// Systolic tokens: capacity 2 lets neighbors skew by one round
			// without blocking; backward channels start primed with two
			// empty tokens so stage i's round r pairs with stage i+1's
			// round r−2 gradient — exactly the one PBTrainer consumes at
			// the same pipeline step.
			as.fwdIn = make(chan *inflight, 2)
			if i < s-1 {
				as.bwdIn = make(chan *nn.Packet, 4)
				as.bwdIn <- nil
				as.bwdIn <- nil
			}
		} else {
			as.fwdIn = make(chan *inflight, 1)
			if i < s-1 {
				// delay+2 ≥ max outstanding gradients toward this stage, so
				// backward sends are wait-free (deadlock freedom).
				as.bwdIn = make(chan *nn.Packet, st.delay+2)
			}
		}
		t.stages = append(t.stages, as)
	}
	// Every stage goroutine counts against the worker budget; the surplus
	// becomes per-stage kernel workers, front-loaded onto the early stages,
	// whose kernels dominate the uneven per-stage FLOPs (workers.go).
	t.pars = attachPerStageKernelWorkers(inner.stages, cfg.Workers)
	// Per-stage producers were attached by newPBTrainer; the driver emits
	// through its own ring.
	t.obsDrv = driverProducer(cfg.Obs)
	for i := range t.stages {
		t.wg.Add(1)
		if mode == ModeLockstep {
			go t.workerLock(i)
		} else {
			go t.workerFree(i)
		}
	}
	return t
}

// NumStages returns the pipeline depth S.
func (t *AsyncPBTrainer) NumStages() int { return len(t.stages) }

// Delays returns the analytic per-stage delays D_s.
func (t *AsyncPBTrainer) Delays() []int {
	d := make([]int, len(t.stages))
	for i, s := range t.stages {
		d[i] = s.delay
	}
	return d
}

// ObservedDelays returns the maximum forward→backward update gap measured
// per stage. Only valid with the pipeline quiesced (after Drain or Close).
func (t *AsyncPBTrainer) ObservedDelays() []int {
	d := make([]int, len(t.stages))
	for i, s := range t.stages {
		d[i] = s.maxObserved
	}
	return d
}

// StageOptimizer exposes stage i's optimizer so the async engine satisfies
// checkpoint.PipelineTrainer. Like ObservedDelays, the stage accessors are
// only valid with the pipeline quiesced (after Drain or Close). Resume is
// exact for ModeFree, whose LR schedule is driven entirely by the per-stage
// update counters that RestorePipeline restores; a ModeLockstep engine
// should be resumed as "seq" or "lockstep" instead (its per-worker round
// counters restart at zero and are not checkpointed).
func (t *AsyncPBTrainer) StageOptimizer(i int) *optim.Momentum { return t.stages[i].opt }

// StageParams exposes stage i's parameters (for checkpointing).
func (t *AsyncPBTrainer) StageParams(i int) []*nn.Param { return t.stages[i].params }

// StageUpdates returns stage i's applied-update counter.
func (t *AsyncPBTrainer) StageUpdates(i int) int { return t.stages[i].updates }

// SetStageUpdates restores stage i's update counter from a checkpoint and
// drops the stage's prediction (see PBTrainer.SetStageUpdates).
func (t *AsyncPBTrainer) SetStageUpdates(i, updates int) {
	t.stages[i].updates = updates
	t.stages[i].dropPrediction()
}

// UpdateStep reports the engine's schedule position. In ModeLockstep that
// is the pipeline-step counter, which Drain keeps aligned with the
// sequential engine's — so a drained lockstep run resumed as "seq" or
// "lockstep" continues its LR schedule exactly. In ModeFree it is stage 0's
// update count (the number of fully completed samples): free mode schedules
// by per-stage update counts and has no global pipeline-step counter, so
// the unit differs from PBTrainer.UpdateStep (which includes 2(S−1) drain
// bubbles per Drain) — a cross-engine restore of a free-mode snapshot keeps
// weights, optimizer state and per-stage counters exact, but the restored
// global step only matches schedules expressed in sample counts.
func (t *AsyncPBTrainer) UpdateStep() int {
	if t.Mode == ModeLockstep {
		return t.step
	}
	return t.stages[0].updates
}

// SetUpdateStep aligns the lockstep-mode drain accounting with a restored
// schedule position; ModeFree ignores the global step entirely (its LR
// schedule runs off the per-stage counters).
func (t *AsyncPBTrainer) SetUpdateStep(step int) {
	t.step = step
	t.lastPush = step
}

// CheckResume implements checkpoint.ResumeChecker: ModeFree resumes exactly
// (its LR schedule is driven by the restored per-stage update counters);
// ModeLockstep cannot, because its workers schedule by round counters that
// restart at zero and are not captured — resume that trajectory with the
// "seq" or "lockstep" engine instead.
func (t *AsyncPBTrainer) CheckResume() error {
	if t.Mode == ModeLockstep {
		return errors.New("core: async lockstep mode cannot restore a checkpoint (round counters restart); resume with the seq or lockstep engine")
	}
	return nil
}

// Outstanding returns the number of samples in the pipeline as seen by the
// driver (submitted minus completed).
func (t *AsyncPBTrainer) Outstanding() int {
	return t.submitted - int(t.completed.Load())
}

// harvest collects any results already queued, without blocking.
func (t *AsyncPBTrainer) harvest(rs []*Result) []*Result {
	for {
		select {
		case r := <-t.resCh:
			rs = append(rs, r)
		default:
			return rs
		}
	}
}

// InputBuffer returns a tensor of the given shape for the next Submit,
// reusing an input buffer retired by stage 0 when one is available.
func (t *AsyncPBTrainer) InputBuffer(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	dt := t.dtype
	for {
		select {
		case x := <-t.inputFree:
			if x.Size() == n && x.DType() == dt {
				x.SetShape(shape...)
				return x
			}
			// Stale shape (workload changed); drop and keep looking.
		default:
			return tensor.NewDT(dt, shape...)
		}
	}
}

// Submit feeds one sample into the pipeline, blocking only when the bounded
// input queue is full, and returns any results that completed in the
// meantime. The engine takes ownership of x — callers must not reuse it
// (obtain the next buffer from InputBuffer instead). It panics after Close.
// A cancelled ctx aborts the blocking send: the sample is not admitted and
// ctx's error is returned alongside any results harvested while waiting.
func (t *AsyncPBTrainer) Submit(ctx context.Context, x *tensor.Tensor, label int) ([]*Result, error) {
	if t.closed {
		panic("core: Submit after Close")
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if !t.running {
		t.started = time.Now() //lint:allow(determinism) wall-clock start for measured utilization; never feeds the training math
		t.running = true
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var rs []*Result
	if b := t.Cfg.AdmitBound; b > 0 && t.Mode == ModeFree && t.Outstanding() >= b {
		// Bounded-staleness admission: a straggling pipeline has backed up to
		// the caller's staleness bound, so stop admitting and harvest
		// completions until it falls back under. The saturated depth is
		// published so degradation is visible live on the bus. Lockstep mode
		// is exempt: its pipeline only advances on driver tokens, so gating
		// admission there would deadlock the drain.
		t.admitDeferred++
		t.emitDriver(nil)
		for t.Outstanding() >= b {
			select {
			case r := <-t.resCh:
				rs = append(rs, r)
			case <-t.donePing:
			case <-done:
				return t.harvest(rs), ctx.Err()
			}
		}
	}
	in := &inflight{packet: nn.NewPacket(x), label: label, id: t.nextID}
	t.nextID++
	t.submitted++
	for {
		select {
		case t.stages[0].fwdIn <- in:
			if t.Mode == ModeLockstep {
				t.lastPush = t.step
				t.step++
			}
			rs = t.harvest(rs)
			t.emitDriver(rs)
			return rs, nil
		case r := <-t.resCh:
			// Harvesting while blocked keeps the last stage from wedging on
			// a full result queue.
			rs = append(rs, r)
		case <-done:
			// The sample never entered the pipeline; undo its accounting so
			// Outstanding stays truthful and a later Drain cannot hang
			// waiting for a completion that will never come.
			t.nextID--
			t.submitted--
			return t.harvest(rs), ctx.Err()
		}
	}
}

// Drain quiesces the pipeline: it waits until every submitted sample has
// applied its final weight update and returns the collected results. In
// lockstep mode it first issues exactly the empty rounds the sequential
// schedule would execute, keeping the step counter (and any LR schedule)
// aligned with PBTrainer. A cancelled ctx aborts the wait, returning the
// results collected so far with ctx's error; samples may remain in flight
// (Close abandons them).
func (t *AsyncPBTrainer) Drain(ctx context.Context) ([]*Result, error) {
	if t.closed {
		if t.Outstanding() > 0 {
			// Close abandoned the in-flight samples and the workers are
			// gone; waiting would hang forever. Fail fast like Step/Submit.
			panic("core: Drain after Close with samples in flight")
		}
		return nil, nil
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var rs []*Result
	if t.Mode == ModeLockstep && t.submitted > 0 {
		// Rounds are only owed for real samples: a Drain before the first
		// Submit must issue none, exactly like PBTrainer.Drain on an empty
		// pipeline, or the round counter (and any LR schedule) would run
		// ahead of the sequential engine's step counter.
		need := t.lastPush + 2*len(t.stages) - 1
		for t.step < need {
			select {
			case t.stages[0].fwdIn <- nil:
				t.step++
			case r := <-t.resCh:
				rs = append(rs, r)
			case <-done:
				return t.harvest(rs), ctx.Err()
			}
		}
	}
	for t.Outstanding() > 0 {
		select {
		case r := <-t.resCh:
			rs = append(rs, r)
		case <-t.donePing:
		case <-done:
			return t.harvest(rs), ctx.Err()
		}
	}
	rs = t.harvest(rs)
	t.dropPredictions()
	if t.running {
		t.wallNs += time.Since(t.started).Nanoseconds() //lint:allow(determinism) wall-clock accounting for Stats.Utilization only
		t.running = false
	}
	t.emitDriver(rs)
	emitDrainSummary(t.obsDrv, t.Stats())
	return rs, nil
}

// dropPredictions clears ŵ from every stage's G. Only valid with the pipeline
// quiesced: every stage's last update happened before the completion Drain
// waited for.
func (t *AsyncPBTrainer) dropPredictions() {
	for _, st := range t.stages {
		st.dropPrediction()
	}
}

// emitDriver publishes the driver-side view — harvested completions and the
// engine-level queue depth — after a Submit or Drain.
func (t *AsyncPBTrainer) emitDriver(rs []*Result) {
	if t.obsDrv == nil {
		return
	}
	emitResults(t.obsDrv, int(t.completed.Load()), rs)
	t.obsDrv.Emit(obs.Event{Kind: obs.KindQueueDepth, Stage: -1, Count: int64(t.Outstanding())})
}

// Close terminates the stage goroutines. Idempotent; in-flight samples are
// abandoned. The trainer is unusable afterwards.
func (t *AsyncPBTrainer) Close() {
	if t.closed {
		return
	}
	t.closed = true
	close(t.stop)
	t.wg.Wait()
	closeParallels(t.pars)
}

// Stats snapshots the engine's accounting. Utilization reports how busy
// the available workers were: the summed per-stage compute time divided by
// (min(S, GOMAXPROCS) × wall time), where wall time covers only the active
// windows between first Submit and Drain. With at least S cores this is the
// paper's notion of worker utilization; on fewer cores it measures the
// useful-work share of the cores actually available. The busy windows are
// self-timed wall clock, so when the runtime is oversubscribed (GOMAXPROCS
// above the physical core count) descheduled time leaks in and the measure
// can drift slightly above 1. Steps is only meaningful in lockstep mode
// (the free-running engine has no global step counter and reports 0). Only
// valid with the pipeline quiesced.
func (t *AsyncPBTrainer) Stats() Stats {
	s := Stats{
		Stages:        len(t.stages),
		Submitted:     t.submitted,
		Completed:     int(t.completed.Load()),
		AdmitDeferred: t.admitDeferred,
	}
	if t.Mode == ModeLockstep {
		s.Steps = t.step
	}
	for _, st := range t.stages {
		if st.maxObserved > s.MaxObservedDelay {
			s.MaxObservedDelay = st.maxObserved
		}
	}
	if t.wallNs == 0 {
		return s
	}
	var busy int64
	for _, st := range t.stages {
		busy += st.busyNs
	}
	workers := len(t.stages)
	if p := runtime.GOMAXPROCS(0); p < workers {
		workers = p
	}
	s.Utilization = float64(busy) / (float64(workers) * float64(t.wallNs))
	return s
}

// complete records a sample's final update and wakes a waiting Drain.
func (t *AsyncPBTrainer) complete() {
	t.completed.Add(1)
	select {
	case t.donePing <- struct{}{}:
	default:
	}
}

// lossBackward runs the last stage's loss head and immediate backward pass
// for a just-forwarded sample and returns the result and the upstream
// gradient. The forwarded packet is reused to carry the loss gradient.
func (t *AsyncPBTrainer) lossBackward(i int, in *inflight, out *nn.Packet, lr float64) (*Result, *nn.Packet) {
	st := t.stages[i]
	loss, correct, grad := st.runLossHead(t.Net.Head, out, in.label)
	dx := st.runBackward(grad, lr)
	return &Result{ID: in.id, Loss: loss, Correct: correct}, dx
}

// retireInput recycles a completed sample's stage-0 input gradient buffer —
// which has the pipeline-input shape — back to the driver for input reuse,
// or into the stage arena when the driver isn't collecting.
func (t *AsyncPBTrainer) retireInput(st *asyncStage, dx *nn.Packet) {
	if dx == nil || dx.X == nil {
		return
	}
	select {
	case t.inputFree <- dx.X:
	default:
		st.arena.Put(dx.X)
	}
}

// freeLR returns the learning rate for stage i's next update in free mode.
// There is no global step, so each stage schedules by its own update count
// shifted by its fill latency 2(S−1)−i — the step at which the synchronous
// schedule would perform the same numbered update under continuous feeding.
func (t *AsyncPBTrainer) freeLR(i int) float64 {
	st := t.stages[i]
	return t.Cfg.lrAt(st.updates + 2*(len(t.stages)-1) - i)
}

// workerFree is the free-running per-stage loop: gradients first, then
// either work, with forwards gated by the staleness cap.
func (t *AsyncPBTrainer) workerFree(i int) {
	defer t.wg.Done()
	st := t.stages[i]
	last := i == len(t.stages)-1
	for {
		if !last {
			// Backward priority: consume every gradient already queued
			// before considering new forwards — gradients retire samples
			// and free staleness budget.
			drained := false
			for !drained {
				select {
				case g := <-st.bwdIn:
					if !t.freeBackward(i, g) {
						return
					}
				default:
					drained = true
				}
			}
			// Staleness gate: accepting a forward now would let the
			// forward→backward update gap exceed D_s, so wait for a
			// gradient instead.
			if st.pending() > st.delay {
				select {
				case g := <-st.bwdIn:
					if !t.freeBackward(i, g) {
						return
					}
				case <-t.stop:
					return
				}
				continue
			}
			select {
			case g := <-st.bwdIn:
				if !t.freeBackward(i, g) {
					return
				}
			case in := <-st.fwdIn:
				if !t.freeForward(i, in) {
					return
				}
			case <-t.stop:
				return
			}
			continue
		}
		// Last stage: forward, loss and backward are one atom (D_{S−1}=0).
		select {
		case in := <-st.fwdIn:
			if !t.freeForward(i, in) {
				return
			}
		case <-t.stop:
			return
		}
	}
}

// freeForward runs one forward at stage i and routes the output. The last
// stage additionally computes the loss and its own zero-delay backward.
// Returns false when the engine is stopping.
func (t *AsyncPBTrainer) freeForward(i int, in *inflight) bool {
	st := t.stages[i]
	last := i == len(t.stages)-1
	// Injected stalls sit outside the busy window: a straggling stage reads
	// as idle, lowering measured utilization, never inflating it.
	st.stall(false)
	t0 := time.Now() //lint:allow(determinism) busy-time accounting for Stats.Utilization; never feeds the training math
	out := st.runForward(in)
	if !last {
		st.busyNs += time.Since(t0).Nanoseconds() //lint:allow(determinism) busy-time accounting only
		st.emitObs()
		in.packet = out // reuse the inflight wrapper for the next hop
		select {
		case t.stages[i+1].fwdIn <- in:
			return true
		case <-t.stop:
			return false
		}
	}
	res, dx := t.lossBackward(i, in, out, t.freeLR(i))
	st.busyNs += time.Since(t0).Nanoseconds() //lint:allow(determinism) busy-time accounting only
	st.emitObs()
	// The result must be published before the gradient is released
	// upstream: completion (stage 0's update) happens-after the gradient
	// hops, so a Drain that observes completion is then guaranteed to find
	// the result already queued.
	select {
	case t.resCh <- res:
	case <-t.stop:
		return false
	}
	if i == 0 {
		t.retireInput(st, dx)
		t.complete()
		return true
	}
	select {
	case t.stages[i-1].bwdIn <- dx:
		return true
	case <-t.stop:
		return false
	}
}

// freeBackward runs one backward+update at stage i and routes the gradient
// upstream. Returns false when the engine is stopping.
func (t *AsyncPBTrainer) freeBackward(i int, g *nn.Packet) bool {
	st := t.stages[i]
	st.stall(true)
	t0 := time.Now() //lint:allow(determinism) busy-time accounting for Stats.Utilization; never feeds the training math
	dx := st.runBackward(g, t.freeLR(i))
	st.busyNs += time.Since(t0).Nanoseconds() //lint:allow(determinism) busy-time accounting only
	st.emitObs()
	if i == 0 {
		t.retireInput(st, dx)
		t.complete()
		return true
	}
	select {
	case t.stages[i-1].bwdIn <- dx:
		return true
	case <-t.stop:
		return false
	}
}

// workerLock is the systolic per-stage loop: each round receives one forward
// and one backward token (possibly empty), computes, and emits one token to
// each neighbor. Stage i's round r corresponds exactly to PBTrainer's
// pipeline step r+i, making the schedule — and the weight trajectory —
// bit-identical to the sequential engine.
func (t *AsyncPBTrainer) workerLock(i int) {
	defer t.wg.Done()
	st := t.stages[i]
	s := len(t.stages)
	last := i == s-1
	for round := 0; ; round++ {
		var in *inflight
		select {
		case in = <-st.fwdIn:
		case <-t.stop:
			return
		}
		var g *nn.Packet
		if !last {
			select {
			case g = <-st.bwdIn:
			case <-t.stop:
				return
			}
		}
		lr := t.Cfg.lrAt(round + i)
		var fwdOut *inflight
		var res *Result
		var dx *nn.Packet
		didBwd := false
		if in != nil {
			st.stall(false)
		}
		if g != nil {
			st.stall(true)
		}
		t0 := time.Now() //lint:allow(determinism) busy-time accounting for Stats.Utilization; never feeds the training math
		if in != nil {
			out := st.runForward(in)
			if last {
				// Same step: the loss gradient feeds this stage's own
				// backward immediately, as in PBTrainer's backward sweep.
				res, dx = t.lossBackward(i, in, out, lr)
				didBwd = true
			} else {
				in.packet = out // reuse the inflight wrapper
				fwdOut = in
			}
		}
		if g != nil {
			dx = st.runBackward(g, lr)
			didBwd = true
		}
		if in != nil || g != nil {
			// Only working rounds count as busy — and only their writes are
			// ordered before the sample's final completion, which is what
			// makes a post-Drain Stats read race-free: trailing empty drain
			// rounds may still be in flight then.
			st.busyNs += time.Since(t0).Nanoseconds() //lint:allow(determinism) busy-time accounting only
			st.emitObs()
		}
		if !last {
			select {
			case t.stages[i+1].fwdIn <- fwdOut:
			case <-t.stop:
				return
			}
		} else if res != nil {
			select {
			case t.resCh <- res:
			case <-t.stop:
				return
			}
		}
		if i > 0 {
			var tok *nn.Packet
			if didBwd {
				tok = dx
			}
			select {
			case t.stages[i-1].bwdIn <- tok:
			case <-t.stop:
				return
			}
		} else if didBwd {
			t.retireInput(st, dx)
			t.complete()
		}
	}
}
