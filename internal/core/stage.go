package core

import (
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// This file holds the engine-independent per-stage compute: the forward and
// backward transformation of one sample at one stage, including the
// mitigation machinery (weight prediction, stashing, spike compensation via
// the optimizer, gradient shrinking). PBTrainer (one step's sweeps run
// serially by seq, or fanned out to per-stage lanes by lockstep) and the
// free-running AsyncPBTrainer drive these same routines with different
// schedules; only the scheduling differs between engines, never the math.
//
// Each stage owns a tensor.Arena (nil when Config.Unpooled is set): all
// activation, gradient and im2col buffers the stage's compute needs are
// drawn from and recycled into it, so steady-state training through the
// core layers allocates nothing on the hot path (the ablation-only
// alternative normalizers still allocate small context slices — see
// DESIGN.md §7 for the scope and the ownership rules). The arena is only
// ever touched by the goroutine driving the stage.

// stageSet is the stage-indexed view of one pipeline that both engines
// embed: the geometry, the staleness record and the per-stage state that
// checkpoints, the cluster and the sync policies read and write. On the
// free-running engine it is only valid with the pipeline quiesced (after
// Drain or Close).
type stageSet struct {
	stages []*stageState
}

// NumStages returns the pipeline depth S.
func (p stageSet) NumStages() int { return len(p.stages) }

// Delays returns the analytic per-stage gradient delays D_s, which every
// stage's delay was set from.
func (p stageSet) Delays() []int { return StageDelays(len(p.stages)) }

// ObservedDelays returns the maximum forward→backward update gap measured
// per stage since construction.
func (p stageSet) ObservedDelays() []int {
	d := make([]int, len(p.stages))
	for i, s := range p.stages {
		d[i] = s.maxObserved
	}
	return d
}

// maxObservedDelay is the largest entry of ObservedDelays.
func (p stageSet) maxObservedDelay() int {
	m := 0
	for _, s := range p.stages {
		m = max(m, s.maxObserved)
	}
	return m
}

// StageParams exposes stage i's parameters (for checkpointing).
func (p stageSet) StageParams(i int) []*nn.Param { return p.stages[i].params }

// StageOptimizer exposes stage i's optimizer (for checkpointing and
// inspection). Stage optimizers are independent; see DESIGN.md.
func (p stageSet) StageOptimizer(i int) *optim.Momentum { return p.stages[i].opt }

// StageUpdates returns stage i's applied-update counter (for checkpointing).
func (p stageSet) StageUpdates(i int) int { return p.stages[i].updates }

// SetStageUpdates restores stage i's update counter from a checkpoint. Every
// restore and replica alignment calls it after writing the stage's state, so
// it also drops the stage's prediction.
func (p stageSet) SetStageUpdates(i, updates int) {
	p.stages[i].updates = updates
	p.stages[i].dropPrediction()
}

// dropPredictions clears ŵ from every stage's G on a quiesced pipeline, so
// whatever a caller does to weights or optimizer state next is seen by the
// next forward.
func (p stageSet) dropPredictions() {
	for _, st := range p.stages {
		st.dropPrediction()
	}
}

// fwdHorizonFor returns the weight-prediction horizon and form used at the
// forward pass of stage i in an s-stage pipeline whose stage-i delay is
// delay. Zero horizon means no prediction.
func fwdHorizonFor(mit Mitigation, s, i, delay int) (float64, optim.LWPForm) {
	if mit.SpecTrain {
		// Vertical sync: predict to the sample's final update time,
		// 2(S−1)−s steps ahead of this forward pass (Appendix C).
		return float64(2*(s-1) - i), optim.LWPVelocity
	}
	if mit.LWP {
		scale := mit.LWPScale
		if scale == 0 {
			scale = 1
		}
		return scale * float64(delay), mit.LWPForm
	}
	return 0, optim.LWPVelocity
}

// bwdHorizonFor returns the prediction horizon used at the backward pass of
// stage i (SpecTrain only).
func bwdHorizonFor(mit Mitigation, i int) float64 {
	if mit.SpecTrain {
		return float64(i)
	}
	return 0
}

// stall consults the fault-injection hook (Config.StageDelay) before a stage
// transformation and sleeps out any injected straggle. Engines call it from
// the goroutine driving the stage, outside their busy-time accounting
// windows, so injected stalls read as idle time (lower utilization) rather
// than compute. Replica is reported as -1; the cluster's per-replica hook
// wrapper rewrites it (see NewCluster). The stall never touches stage state,
// so the weight trajectory is unchanged.
func (st *stageState) stall(backward bool) {
	if st.chaos == nil {
		return
	}
	p := ChaosPoint{Replica: -1, Stage: st.idx, Update: st.updates, Backward: backward}
	if d := st.chaos(p); d > 0 {
		time.Sleep(d)
	}
}

// forwardInfer is the standalone forward-only path: it runs the stage's
// Forward and immediately releases the context — no FIFO push, no gradient,
// no optimizer. Retained activations flow straight back into the stage's
// arena via Stage.ReleaseCtx, so a forward-only pipeline holds no
// per-inflight state beyond the packet itself. The inference engines
// (infer.go) drive all their compute through this.
func forwardInfer(s nn.Stage, p *nn.Packet, ar *tensor.Arena, par *tensor.Parallel) *nn.Packet {
	out, ctx := s.Forward(p, ar, par)
	s.ReleaseCtx(ctx, ar)
	return out
}

// fused reports whether the stage runs its forward under ŵ kept in G: it
// predicts (LWP or SpecTrain) and does not stash. With stashing every
// in-flight sample needs its own copy of the weights it ran under, so one
// buffer cannot serve.
func (st *stageState) fused() bool {
	return st.fwdH > 0 && !st.mit.WeightStash && len(st.params) > 0
}

// dropPrediction returns G to a (pending-zero) gradient accumulator when it
// holds ŵ. The stage calls it before every backward; the engines call it
// wherever weights or velocities may change outside the stage loop (Drain,
// SetStageUpdates, cluster sync), so the next forward predicts afresh.
func (st *stageState) dropPrediction() {
	if !st.predicted {
		return
	}
	for _, p := range st.params {
		p.ZeroGrad()
	}
	st.predicted = false
}

// swapIn installs datas[j] as parameter j's weight storage, parking the
// displaced storage in st.swap; swapOut puts it back. Forward and backward
// compute are pure functions of (weights, input), so the stage's own weights
// are never mutated by running under another view.
func (st *stageState) swapIn(datas [][]float64) {
	for j, p := range st.params {
		st.swap[j] = p.SwapData(datas[j])
	}
}

func (st *stageState) swapOut() {
	for j, p := range st.params {
		p.SwapData(st.swap[j])
		st.swap[j] = nil
	}
}

// runForward performs the stage's forward transformation for one sample
// under the mitigation's prediction/stashing rules, pushes the sample's
// context onto the stage FIFO, and returns the output packet. It touches
// only stage-local state. With a non-nil arena the input packet is consumed
// and (usually) returned as the output packet.
//
// On the fused path ŵ already sits in G, written by the previous update's
// StepPredict; only the first forward after a drop predicts here. Either way
// the forward runs with G's storage installed as the weights.
func (st *stageState) runForward(in *inflight) *nn.Packet {
	var stash [][]float64
	swapped := true
	switch {
	case st.fused():
		if !st.predicted {
			for _, p := range st.params {
				st.opt.PredictInto(p.GradForOverwrite().Data, p, st.fwdForm, st.fwdH)
			}
			st.predicted = true
		}
		for j, p := range st.params {
			st.swap[j] = p.SwapData(p.Grad().Data)
		}
	case st.fwdH > 0 && len(st.params) > 0:
		// Prediction with stashing: the sample keeps its own ŵ.
		stash = make([][]float64, len(st.params))
		for j, p := range st.params {
			stash[j] = st.opt.Predict(p, st.fwdForm, st.fwdH)
		}
		st.swapIn(stash)
	default:
		swapped = false
		if st.mit.WeightStash && len(st.params) > 0 {
			stash = make([][]float64, len(st.params))
			for j, p := range st.params {
				stash[j] = p.Snapshot()
			}
		}
	}
	out, ctx := st.stage.Forward(in.packet, st.arena, st.par)
	if swapped {
		st.swapOut()
	}
	st.push(ctx, stash, in.id)
	return out
}

// runBackward is one backward followed by one weight update at learning
// rate lr: the whole per-sample backward of update size one. With a
// non-nil arena the gradient packet is consumed and (usually) returned as
// the output packet. On the fused path the update also leaves the next
// forward's ŵ in G.
func (st *stageState) runBackward(dIn *nn.Packet, lr float64) *nn.Packet {
	dx := st.backward(dIn)
	st.update(lr)
	return dx
}

// backward consumes the oldest pending context, performs the stage's
// backward transformation (under stashed or predicted weights when the
// mitigation asks for them), records the sample's staleness and returns
// the input gradient. The weight gradient is left in G, shrunk when the
// mitigation asks for it, for update to apply. It touches only stage-local
// state.
func (st *stageState) backward(dIn *nn.Packet) *nn.Packet {
	c := st.pop()
	st.dropPrediction()
	var dx *nn.Packet
	switch {
	case c.stash != nil && len(st.params) > 0:
		st.swapIn(c.stash)
		dx = st.stage.Backward(dIn, c.ctx, st.arena, st.par)
		st.swapOut()
	case st.bwdH > 0 && len(st.params) > 0:
		// SpecTrain's backward prediction is needed while G accumulates, so
		// it gets a buffer of its own.
		if st.bwdPred == nil {
			st.bwdPred = make([][]float64, len(st.params))
			for j, p := range st.params {
				st.bwdPred[j] = make([]float64, p.W.Size())
			}
		}
		for j, p := range st.params {
			st.opt.PredictInto(st.bwdPred[j], p, optim.LWPVelocity, st.bwdH)
		}
		st.swapIn(st.bwdPred)
		dx = st.stage.Backward(dIn, c.ctx, st.arena, st.par)
		st.swapOut()
	default:
		dx = st.stage.Backward(dIn, c.ctx, st.arena, st.par)
	}
	gap := st.updates - c.fwdUpdates
	if gap > st.maxObserved {
		st.maxObserved = gap
	}
	st.obs.Emit(obs.Event{Kind: obs.KindStaleness, Stage: st.idx, Count: int64(gap)})
	if g := st.mit.GradShrink; g > 0 && len(st.params) > 0 {
		optim.ShrinkGradients(st.params, g, float64(st.delay))
	}
	return dx
}

// update applies one weight update at learning rate lr from the gradient
// backward left in G, and counts it. On the fused path it also leaves the
// next forward's ŵ in G.
func (st *stageState) update(lr float64) {
	if len(st.params) > 0 {
		st.opt.LR = lr
		if st.fused() {
			st.opt.StepPredict(st.params, st.fwdForm, st.fwdH)
			st.predicted = true
		} else {
			st.opt.Step(st.params)
		}
	}
	st.updates++
}

// runLossHead applies the network head to a just-forwarded sample at the
// last stage: it computes the loss and correctness, recycles the logits
// buffer, and reuses the packet to carry the loss gradient into the stage's
// own backward pass.
func (st *stageState) runLossHead(head nn.SoftmaxCrossEntropy, out *nn.Packet, label int) (loss float64, correct bool, grad *nn.Packet) {
	st.labelBuf[0] = label
	dl := st.arena.GetDT(out.X.DType(), out.X.Shape...)
	loss = head.LossInto(dl, out.X, st.labelBuf[:])
	correct = nn.Accuracy(out.X, st.labelBuf[:]) == 1
	st.arena.Put(out.X)
	out.X = dl
	return loss, correct, out
}
