package core

import (
	"context"
	"sync"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// ParallelPBTrainer is a concurrent implementation of pipelined
// backpropagation: every stage runs on its own goroutine — its own
// "worker", as in the paper's hardware model (Fig. 1) — exchanging
// activations and gradients with its neighbors through channels. Workers
// advance in lockstep pipeline steps (a barrier per step), which makes the
// engine's weight trajectory bit-identical to the sequential PBTrainer;
// tests assert this equivalence. On a multi-core host the stage
// computations of one step run genuinely in parallel.
//
// The lockstep barrier models the paper's synchronous pipeline hardware; it
// is not an optimization for throughput on small models (channel overhead
// dominates tiny stages) but demonstrates that the engine's semantics are
// worker-local: each stage touches only its own parameters, optimizer state
// and context queue.
type ParallelPBTrainer struct {
	inner *PBTrainer
	// workers' synchronization.
	start   []chan phase
	done    []chan struct{}
	stopped bool
	wg      sync.WaitGroup
	// per-step shared buffers (written by neighbors, read next step).
	nextFwd []*inflight
	nextBwd []*nn.Packet
	// same-step loss handoff (last stage forward → last stage backward).
	lossGrad *nn.Packet
	result   *Result
	// pars are the per-stage kernel-worker groups (closed by Close).
	pars []*tensor.Parallel
}

// phase tells a worker which half-step to execute.
type phase int

const (
	phaseForward phase = iota
	phaseBackward
	phaseStop
)

// NewParallelPBTrainer builds the concurrent engine around the same stage
// state as NewPBTrainer.
func NewParallelPBTrainer(net *nn.Network, cfg Config) *ParallelPBTrainer {
	t := &ParallelPBTrainer{inner: newPBTrainer(net, cfg)}
	s := len(t.inner.stages)
	// All stages compute concurrently here, so the worker budget is split
	// per stage: one worker for the stage goroutine itself plus its share of
	// the surplus as kernel workers.
	t.pars = attachPerStageKernelWorkers(t.inner.stages, cfg.Workers)
	t.start = make([]chan phase, s)
	t.done = make([]chan struct{}, s)
	t.nextFwd = make([]*inflight, s)
	t.nextBwd = make([]*nn.Packet, s)
	for i := 0; i < s; i++ {
		t.start[i] = make(chan phase)
		t.done[i] = make(chan struct{})
		t.wg.Add(1)
		go t.worker(i)
	}
	return t
}

// worker is the per-stage goroutine: it waits for a phase signal, performs
// its forward or backward half-step touching only stage-local state and its
// slot in the shared next-step buffers, and reports completion.
func (t *ParallelPBTrainer) worker(i int) {
	defer t.wg.Done()
	// The lockstep barrier is synchronously paired: signalAll always sends a
	// phase and then receives the matching done, so neither side can wedge,
	// and the phaseStop token (not a ctx) is the engine's shutdown signal.
	//lint:allow(ctxselect) barrier receive is paired with signalAll's send; phaseStop is the shutdown path
	for ph := range t.start[i] {
		switch ph {
		case phaseForward:
			t.forwardStage(i)
		case phaseBackward:
			t.backwardStage(i)
		case phaseStop:
			t.done[i] <- struct{}{} //lint:allow(ctxselect) paired with signalAll's unconditional done receive
			return
		}
		t.done[i] <- struct{}{} //lint:allow(ctxselect) paired with signalAll's unconditional done receive
	}
}

// forwardStage mirrors PBTrainer.Step's forward sweep for one stage.
func (t *ParallelPBTrainer) forwardStage(i int) {
	in := t.inner.fwd[i]
	if in == nil {
		return
	}
	t.inner.fwd[i] = nil
	st := t.inner.stages[i]
	st.stall(false)
	out := st.runForward(in)
	if i < len(t.inner.stages)-1 {
		in.packet = out // reuse the inflight wrapper for the next hop
		t.nextFwd[i+1] = in
		return
	}
	loss, correct, grad := st.runLossHead(t.inner.Net.Head, out, in.label)
	t.lossGrad = grad
	t.result = &Result{ID: in.id, Loss: loss, Correct: correct}
}

// backwardStage mirrors PBTrainer.Step's backward sweep for one stage.
func (t *ParallelPBTrainer) backwardStage(i int) {
	var dIn *nn.Packet
	if i == len(t.inner.stages)-1 {
		dIn = t.lossGrad
		t.lossGrad = nil
	} else {
		dIn = t.inner.bwd[i]
		t.inner.bwd[i] = nil
	}
	if dIn == nil {
		return
	}
	st := t.inner.stages[i]
	st.stall(true)
	dx := st.runBackward(dIn, t.inner.Cfg.lrAt(t.inner.updateStep))
	if i == 0 {
		t.inner.outstanding--
		t.inner.completed++
		recycleInput(&t.inner.inputFree, dx.X)
	} else {
		t.nextBwd[i-1] = dx
	}
}

// Push queues a sample for the next step.
func (t *ParallelPBTrainer) Push(x *tensor.Tensor, label int) { t.inner.Push(x, label) }

// Outstanding reports in-flight samples.
func (t *ParallelPBTrainer) Outstanding() int { return t.inner.outstanding }

// Step advances all workers through one lockstep pipeline step and returns
// the completed sample's result, if any.
func (t *ParallelPBTrainer) Step() *Result {
	if t.stopped {
		panic("core: Step after Close")
	}
	if t.inner.pending != nil {
		t.inner.fwd[0] = t.inner.pending
		t.inner.pending = nil
	}
	t.result = nil
	// Forward half-step: all workers in parallel.
	t.signalAll(phaseForward)
	// Backward half-step.
	t.signalAll(phaseBackward)
	// Rotate buffers.
	copy(t.inner.fwd, t.nextFwd)
	copy(t.inner.bwd, t.nextBwd)
	for i := range t.nextFwd {
		t.nextFwd[i] = nil
		t.nextBwd[i] = nil
	}
	t.inner.step++
	t.inner.updateStep++
	t.inner.Steps++
	return t.result
}

// signalAll releases every worker into a phase and waits for completion.
func (t *ParallelPBTrainer) signalAll(ph phase) {
	for i := range t.start {
		t.start[i] <- ph
	}
	for i := range t.done {
		<-t.done[i]
	}
}

// Drain completes all in-flight samples. A cancelled ctx stops the drain
// early, returning the results collected so far and ctx's error.
func (t *ParallelPBTrainer) Drain(ctx context.Context) ([]*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var rs []*Result
	for t.inner.outstanding > 0 {
		if err := ctxErr(ctx); err != nil {
			return rs, err
		}
		if r := t.Step(); r != nil {
			rs = append(rs, r)
		}
	}
	t.dropPredictions()
	t.inner.emitDriver(rs)
	emitDrainSummary(t.inner.obs, t.Stats())
	return rs, nil
}

// dropPredictions clears ŵ from every stage's G (PBTrainer.dropPredictions).
func (t *ParallelPBTrainer) dropPredictions() { t.inner.dropPredictions() }

// Close terminates the worker goroutines. The trainer is unusable after.
func (t *ParallelPBTrainer) Close() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.signalAll(phaseStop)
	t.wg.Wait()
	closeParallels(t.pars)
}

// StageOptimizer, StageParams, StageUpdates, SetStageUpdates, UpdateStep and
// SetUpdateStep delegate to the inner trainer so the lockstep engine
// satisfies checkpoint.PipelineTrainer (quiesce the pipeline around
// capture/restore). The lockstep schedule is bit-identical to the
// sequential engine, so resume is exact.
func (t *ParallelPBTrainer) StageOptimizer(i int) *optim.Momentum { return t.inner.StageOptimizer(i) }

// StageParams exposes stage i's parameters (for checkpointing).
func (t *ParallelPBTrainer) StageParams(i int) []*nn.Param { return t.inner.StageParams(i) }

// StageUpdates returns stage i's applied-update counter.
func (t *ParallelPBTrainer) StageUpdates(i int) int { return t.inner.StageUpdates(i) }

// SetStageUpdates restores stage i's update counter from a checkpoint.
func (t *ParallelPBTrainer) SetStageUpdates(i, updates int) { t.inner.SetStageUpdates(i, updates) }

// UpdateStep returns the global update-step counter (schedule position).
func (t *ParallelPBTrainer) UpdateStep() int { return t.inner.UpdateStep() }

// SetUpdateStep restores the schedule position from a checkpoint.
func (t *ParallelPBTrainer) SetUpdateStep(step int) { t.inner.SetUpdateStep(step) }

// Delays exposes the per-stage delays (for tests and tooling).
func (t *ParallelPBTrainer) Delays() []int { return t.inner.Delays() }

// ObservedDelays exposes the measured staleness per stage.
func (t *ParallelPBTrainer) ObservedDelays() []int { return t.inner.ObservedDelays() }
