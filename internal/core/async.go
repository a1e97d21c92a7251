package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

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
// queue depth onto the bus. Called only from the stage's own goroutine; a
// nil bus discards.
func (st *asyncStage) emitObs() {
	st.obs.Emit(obs.Event{Kind: obs.KindStageBusy, Stage: st.idx, Count: st.busyNs})
	st.obs.Emit(obs.Event{Kind: obs.KindQueueDepth, Stage: st.idx, Count: int64(len(st.fwdIn))})
}

// AsyncPBTrainer is the free-running concurrent engine for fine-grained
// pipelined backpropagation. Unlike the lockstep engine there is no global
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
// the paper's GProp schedule, per stage, always. Backward packets are
// consumed before forwards; the exact interleaving (and therefore the float
// trajectory) depends on runtime scheduling. The deterministic concurrent
// engine is PBTrainer run as lockstep.
//
// The driver API is streaming: Submit feeds one sample (blocking when the
// pipeline is saturated — bounded queues give natural backpressure) and
// returns any results that completed in the meantime; Drain quiesces the
// pipeline. ObservedDelays, Updates and Utilization must only be read with
// the pipeline quiesced (after Drain or Close).
type AsyncPBTrainer struct {
	Net *nn.Network
	Cfg Config

	stageSet
	// astages are the stage workers: stageSet's stages with their queues.
	astages []*asyncStage
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
	// admission).
	admitDeferred int
	// Wall-clock accounting for measured utilization: the clock runs from
	// the first Submit after idle until the Drain that empties the
	// pipeline, so evaluation pauses between epochs don't dilute it.
	running bool
	started time.Time
	wallNs  int64
}

// NewAsyncPBTrainer builds the engine around the same per-stage state as
// NewPBTrainer and starts one goroutine per stage.
func NewAsyncPBTrainer(net *nn.Network, cfg Config) *AsyncPBTrainer {
	inner := newPBTrainer(net, cfg) // reuse stage construction (optimizers, delays)
	s := len(inner.stages)
	t := &AsyncPBTrainer{
		Net:       net,
		Cfg:       cfg,
		resCh:     make(chan *Result, 2*s+4),
		inputFree: make(chan *tensor.Tensor, maxFreeInputs),
		donePing:  make(chan struct{}, 1),
		stop:      make(chan struct{}),
		dtype:     inner.dtype,
		stageSet:  inner.stageSet,
	}
	for i, st := range inner.stages {
		as := &asyncStage{stageState: st, fwdIn: make(chan *inflight, 1)}
		if i < s-1 {
			// delay+2 ≥ max outstanding gradients toward this stage, so
			// backward sends are wait-free (deadlock freedom).
			as.bwdIn = make(chan *nn.Packet, st.delay+2)
		}
		t.astages = append(t.astages, as)
	}
	// Every stage goroutine counts against the worker budget; the surplus
	// becomes per-stage kernel workers, front-loaded onto the early stages,
	// whose kernels dominate the uneven per-stage FLOPs (workers.go).
	t.pars = attachPerStageKernelWorkers(inner.stages, cfg.Workers)
	for i := range t.astages {
		t.wg.Add(1)
		go t.worker(i)
	}
	return t
}

// UpdateStep reports the engine's schedule position: stage 0's update count
// (the number of fully completed samples). The engine schedules by
// per-stage update counts and has no global pipeline-step counter, so the
// unit differs from PBTrainer.UpdateStep (which includes 2(S−1) drain
// bubbles per Drain) — a cross-engine restore of an async snapshot keeps
// weights, optimizer state and per-stage counters exact, but the restored
// global step only matches schedules expressed in sample counts.
func (t *AsyncPBTrainer) UpdateStep() int { return t.stages[0].updates }

// SetUpdateStep is a no-op: the LR schedule runs off the per-stage counters
// that SetStageUpdates restores.
func (t *AsyncPBTrainer) SetUpdateStep(int) {}

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
	if b := t.Cfg.AdmitBound; b > 0 && t.Outstanding() >= b {
		// Bounded-staleness admission: a straggling pipeline has backed up to
		// the caller's staleness bound, so stop admitting and harvest
		// completions until it falls back under. The saturated depth is
		// published so degradation is visible live on the bus.
		t.admitDeferred++
		t.emitDriver(nil)
		for t.Outstanding() >= b {
			select {
			case r := <-t.resCh:
				rs = append(rs, r)
			case <-t.donePing:
			case <-done:
				return t.cancelled(ctx, rs)
			}
		}
	}
	in := &inflight{packet: nn.NewPacket(x), label: label, id: t.nextID}
	t.nextID++
	t.submitted++
	for {
		select {
		case t.astages[0].fwdIn <- in:
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
			return t.cancelled(ctx, rs)
		}
	}
}

// Drain quiesces the pipeline: it waits until every submitted sample has
// applied its final weight update and returns the collected results. A
// cancelled ctx aborts the wait, returning the results collected so far with
// ctx's error; samples may remain in flight (Close abandons them).
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
	for t.Outstanding() > 0 {
		select {
		case r := <-t.resCh:
			rs = append(rs, r)
		case <-t.donePing:
		case <-done:
			return t.cancelled(ctx, rs)
		}
	}
	rs = t.harvest(rs)
	t.dropPredictions()
	if t.running {
		t.wallNs += time.Since(t.started).Nanoseconds() //lint:allow(determinism) wall-clock accounting for Stats.Utilization only
		t.running = false
	}
	t.emitDriver(rs)
	emitDrainSummary(t.Cfg.Obs, t.Stats())
	return rs, nil
}

// cancelled ends a Submit or Drain whose ctx was cancelled: it harvests the
// completions already queued and publishes them, so the bus sees every
// result the caller gets.
func (t *AsyncPBTrainer) cancelled(ctx context.Context, rs []*Result) ([]*Result, error) {
	rs = t.harvest(rs)
	t.emitDriver(rs)
	return rs, ctx.Err()
}

// emitDriver publishes the driver-side view — harvested completions and the
// engine-level queue depth — after a Submit or Drain.
func (t *AsyncPBTrainer) emitDriver(rs []*Result) {
	emitResults(t.Cfg.Obs, int(t.completed.Load()), rs)
	t.Cfg.Obs.Emit(obs.Event{Kind: obs.KindQueueDepth, Stage: -1, Count: int64(t.Outstanding())})
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
// can drift slightly above 1. Steps is 0: the engine has no global step
// counter. Only valid with the pipeline quiesced.
func (t *AsyncPBTrainer) Stats() Stats {
	s := Stats{
		Stages:        len(t.stages),
		Submitted:     t.submitted,
		Completed:     int(t.completed.Load()),
		AdmitDeferred: t.admitDeferred,
	}
	s.MaxObservedDelay = t.maxObservedDelay()
	if t.wallNs == 0 {
		return s
	}
	var busy int64
	for _, st := range t.astages {
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
	st := t.astages[i]
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

// freeLR returns the learning rate for stage i's next update. There is no
// global step, so each stage schedules by its own update count
// shifted by its fill latency 2(S−1)−i — the step at which the synchronous
// schedule would perform the same numbered update under continuous feeding.
func (t *AsyncPBTrainer) freeLR(i int) float64 {
	st := t.astages[i]
	return t.Cfg.lrAt(st.updates + 2*(len(t.stages)-1) - i)
}

// worker is the free-running per-stage loop: gradients first, then either
// work, with forwards gated by the staleness cap.
func (t *AsyncPBTrainer) worker(i int) {
	defer t.wg.Done()
	st := t.astages[i]
	last := i == len(t.astages)-1
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
	st := t.astages[i]
	last := i == len(t.astages)-1
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
		case t.astages[i+1].fwdIn <- in:
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
	case t.astages[i-1].bwdIn <- dx:
		return true
	case <-t.stop:
		return false
	}
}

// freeBackward runs one backward+update at stage i and routes the gradient
// upstream. Returns false when the engine is stopping.
func (t *AsyncPBTrainer) freeBackward(i int, g *nn.Packet) bool {
	st := t.astages[i]
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
	case t.astages[i-1].bwdIn <- dx:
		return true
	case <-t.stop:
		return false
	}
}
